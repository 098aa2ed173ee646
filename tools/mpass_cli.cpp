// mpass — command-line front end for the library.
//
//   mpass gen   --malware|--benign --seed N --out FILE   generate a sample
//   mpass run   FILE                                     sandbox a sample
//   mpass scan  FILE                                     score with all models
//   mpass attack FILE [--target NAME] [--out FILE]       run MPass
//   mpass pack  FILE --packer upx|pespin|aspack --out F  pack a sample
//   mpass pem   [--n N]                                  PEM section ranking
//   mpass disasm FILE                                    disassemble entry code
//   mpass info  FILE                                     PE structure dump
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "attack/mpass.hpp"
#include "corpus/generator.hpp"
#include "detectors/zoo.hpp"
#include "explain/pem.hpp"
#include "isa/isa.hpp"
#include "pack/packer.hpp"
#include "pe/import.hpp"
#include "util/entropy.hpp"
#include "util/serialize.hpp"
#include "vm/sandbox.hpp"
#include "vm/trace_io.hpp"

namespace {

using namespace mpass;
using util::ByteBuf;

int usage() {
  std::fprintf(stderr,
               "usage: mpass <gen|run|scan|attack|pack|pem|disasm|info|corpus-stats> "
               "[options]\n"
               "  gen    --malware|--benign [--seed N] --out FILE\n"
               "  run    FILE\n"
               "  scan   FILE\n"
               "  attack FILE [--target MalConv|NonNeg|LightGBM|MalGCG|AV1..5]"
               " [--out FILE] [--seed N]\n"
               "  pack   FILE --packer upx|pespin|aspack --out FILE\n"
               "  pem    [--n N]\n"
               "  disasm FILE\n"
               "  info   FILE\n"
               "  corpus-stats [--n N]\n"
               "  gen-corpus --dir DIR [--malware N] [--benign N]\n");
  return 2;
}

const char* opt(int argc, char** argv, const char* name,
                const char* fallback = nullptr) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

bool flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

ByteBuf read_file_or_die(const char* path) {
  auto data = util::load_file(path);
  if (!data) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    std::exit(1);
  }
  return *data;
}

int cmd_gen(int argc, char** argv) {
  const char* out = opt(argc, argv, "--out");
  if (!out) return usage();
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "1"), nullptr, 10);
  const bool malicious = !flag(argc, argv, "--benign");
  const corpus::CompiledSample s =
      malicious ? corpus::make_malware(seed) : corpus::make_benign(seed);
  util::save_file(out, s.bytes());
  std::printf("%s sample (family %s, %zu bytes) -> %s\n",
              malicious ? "malware" : "benign",
              std::string(corpus::family_name(s.meta.family)).c_str(),
              s.bytes().size(), out);
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 1) return usage();
  const ByteBuf file = read_file_or_die(argv[0]);
  const vm::Sandbox sandbox;
  const vm::SandboxReport r = sandbox.analyze(file);
  std::printf("parsed=%d ran=%d malicious=%d steps=%llu (%s)\n", r.parsed,
              r.executed_ok, r.malicious,
              static_cast<unsigned long long>(r.run.steps),
              vm::summarize_trace(r.trace()).c_str());
  if (!r.run.fault_reason.empty())
    std::printf("fault: %s\n", r.run.fault_reason.c_str());
  std::printf("%s", vm::format_trace(r.trace()).c_str());
  return r.parsed ? 0 : 1;
}

int cmd_scan(int argc, char** argv) {
  if (argc < 1) return usage();
  const ByteBuf file = read_file_or_die(argv[0]);
  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  for (detect::Detector* d : zoo.offline())
    std::printf("%-10s score=%.4f threshold=%.4f -> %s\n",
                std::string(d->name()).c_str(), d->score(file), d->threshold(),
                d->is_malicious(file) ? "MALICIOUS" : "benign");
  for (const auto& av : zoo.avs())
    std::printf("%-10s score=%.4f threshold=%.4f -> %s\n",
                std::string(av->name()).c_str(), av->score(file),
                av->threshold(),
                av->is_malicious(file) ? "MALICIOUS" : "benign");
  return 0;
}

int cmd_attack(int argc, char** argv) {
  if (argc < 1) return usage();
  const ByteBuf file = read_file_or_die(argv[0]);
  const char* target_name = opt(argc, argv, "--target", "MalConv");
  const char* out = opt(argc, argv, "--out");
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "7"), nullptr, 10);

  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  const detect::Detector* target = nullptr;
  for (detect::Detector* d : zoo.offline())
    if (d->name() == target_name) target = d;
  if (!target)
    for (const auto& av : zoo.avs())
      if (av->name() == target_name) target = av.get();
  if (!target) {
    std::fprintf(stderr, "unknown target %s\n", target_name);
    return 1;
  }
  std::printf("target %s: original score %.4f (threshold %.4f)\n", target_name,
              target->score(file), target->threshold());
  attack::Mpass attack("MPass", {}, zoo.benign_pool(),
                       zoo.known_nets_excluding(target_name));
  detect::HardLabelOracle oracle(*target, 100);
  const attack::AttackResult r = attack.run(file, oracle, seed);
  std::printf("success=%d queries=%zu APR=%.0f%%\n", r.success,
              oracle.queries(),
              100.0 * attack::apr_of(file.size(), r.adversarial.size()));
  if (r.success) {
    std::printf("AE score: %.4f\n", target->score(r.adversarial));
    const vm::Sandbox sandbox;
    std::printf("functionality preserved: %s\n",
                sandbox.functionality_preserved(file, r.adversarial) ? "yes"
                                                                     : "NO");
    if (out) {
      util::save_file(out, r.adversarial);
      std::printf("AE written to %s\n", out);
    }
  }
  return r.success ? 0 : 1;
}

int cmd_pack(int argc, char** argv) {
  if (argc < 1) return usage();
  const ByteBuf file = read_file_or_die(argv[0]);
  const char* kind_name = opt(argc, argv, "--packer", "upx");
  const char* out = opt(argc, argv, "--out");
  if (!out) return usage();
  pack::PackerKind kind = pack::PackerKind::UpxLike;
  if (std::strcmp(kind_name, "pespin") == 0)
    kind = pack::PackerKind::PespinLike;
  else if (std::strcmp(kind_name, "aspack") == 0)
    kind = pack::PackerKind::AspackLike;
  const auto packed = pack::pack(kind, file);
  if (!packed) {
    std::fprintf(stderr, "packing failed (not a PE?)\n");
    return 1;
  }
  util::save_file(out, *packed);
  std::printf("%zu -> %zu bytes (%s) -> %s\n", file.size(), packed->size(),
              std::string(pack::packer_name(kind)).c_str(), out);
  return 0;
}

int cmd_pem(int argc, char** argv) {
  const std::size_t n =
      std::strtoull(opt(argc, argv, "--n", "12"), nullptr, 10);
  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  std::vector<ByteBuf> malware;
  for (std::size_t i = 0; i < n; ++i)
    malware.push_back(corpus::make_malware(0xC11 + i).bytes());
  std::vector<const detect::Detector*> known;
  for (detect::Detector* d : zoo.offline()) known.push_back(d);
  const explain::PemResult res = explain::run_pem(malware, known, {});
  for (std::size_t m = 0; m < res.model_names.size(); ++m) {
    std::printf("%s top-3:", res.model_names[m].c_str());
    for (const std::string& s : res.per_model_topk[m])
      std::printf(" %s", s.c_str());
    std::printf("\n");
  }
  std::printf("critical sections:");
  for (const std::string& s : res.critical) std::printf(" %s", s.c_str());
  std::printf("\n");
  return 0;
}

int cmd_disasm(int argc, char** argv) {
  if (argc < 1) return usage();
  const ByteBuf file = read_file_or_die(argv[0]);
  const pe::PeFile f = pe::PeFile::parse(file);
  const auto idx = f.section_by_rva(f.entry_point);
  if (!idx) {
    std::fprintf(stderr, "entry point outside any section\n");
    return 1;
  }
  const pe::Section& s = f.sections[*idx];
  const std::uint32_t off = f.entry_point - s.vaddr;
  std::printf("; entry at rva 0x%x (%s+0x%x)\n", f.entry_point,
              s.name.c_str(), off);
  util::ByteReader r({s.data.data() + off, s.data.size() - off});
  for (int i = 0; i < 64 && !r.eof(); ++i) {
    try {
      std::printf("%s\n", isa::to_string(isa::decode(r)).c_str());
    } catch (const util::ParseError&) {
      std::printf("; <data>\n");
      break;
    }
  }
  return 0;
}

int cmd_gen_corpus(int argc, char** argv) {
  const char* dir = opt(argc, argv, "--dir");
  if (!dir) return usage();
  const std::size_t mal =
      std::strtoull(opt(argc, argv, "--malware", "20"), nullptr, 10);
  const std::size_t ben =
      std::strtoull(opt(argc, argv, "--benign", "20"), nullptr, 10);
  const std::uint64_t seed =
      std::strtoull(opt(argc, argv, "--seed", "1"), nullptr, 10);
  const corpus::Dataset ds = corpus::generate_dataset(seed, mal, ben);
  corpus::save_dataset(ds, dir);
  std::printf("wrote %zu samples (%zu malware, %zu benign) to %s\n",
              ds.samples.size(), ds.count(1), ds.count(0), dir);
  return 0;
}

int cmd_corpus_stats(int argc, char** argv) {
  const std::size_t n =
      std::strtoull(opt(argc, argv, "--n", "50"), nullptr, 10);
  struct Acc {
    std::size_t count = 0;
    double bytes = 0, sections = 0, entropy = 0, overlay = 0;
  };
  std::map<std::string, Acc> by_family;
  for (std::size_t i = 0; i < n; ++i) {
    const corpus::CompiledSample s = (i % 2 == 0)
                                         ? corpus::make_malware(0x57A7 + i)
                                         : corpus::make_benign(0x57A7 + i);
    Acc& acc = by_family[std::string(corpus::family_name(s.meta.family))];
    const ByteBuf bytes = s.bytes();
    ++acc.count;
    acc.bytes += static_cast<double>(bytes.size());
    acc.sections += static_cast<double>(s.pe.sections.size());
    acc.entropy += util::shannon_entropy(bytes);
    acc.overlay += s.pe.overlay.empty() ? 0.0 : 1.0;
  }
  std::printf("%-16s %6s %10s %9s %8s %8s\n", "family", "count", "avg bytes",
              "sections", "entropy", "overlay");
  for (const auto& [family, acc] : by_family) {
    const double c = static_cast<double>(acc.count);
    std::printf("%-16s %6zu %10.0f %9.1f %8.2f %7.0f%%\n", family.c_str(),
                acc.count, acc.bytes / c, acc.sections / c, acc.entropy / c,
                100.0 * acc.overlay / c);
  }
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) return usage();
  const ByteBuf file = read_file_or_die(argv[0]);
  const pe::PeFile f = pe::PeFile::parse(file);
  std::printf("machine=0x%x timestamp=0x%x entry=0x%x image_base=0x%x\n",
              f.machine, f.timestamp, f.entry_point, f.image_base);
  std::printf("%-10s %-10s %-10s %-8s %s\n", "name", "rva", "size", "flags",
              "entropy");
  for (const pe::Section& s : f.sections)
    std::printf("%-10s 0x%-8x %-10zu %c%c%c      %.2f\n", s.name.c_str(),
                s.vaddr, s.data.size(),
                (s.characteristics & pe::kScnMemRead) ? 'r' : '-',
                s.writable() ? 'w' : '-', s.executable() ? 'x' : '-',
                util::shannon_entropy(s.data));
  if (!f.overlay.empty())
    std::printf("overlay    %-10s %-10zu          %.2f\n", "-",
                f.overlay.size(), util::shannon_entropy(f.overlay));
  const auto imports = pe::read_imports(f);
  std::printf("%zu imports:", imports.size());
  for (const pe::Import& imp : imports) std::printf(" %s", imp.name.c_str());
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  argc -= 2;
  argv += 2;
  try {
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "scan") return cmd_scan(argc, argv);
    if (cmd == "attack") return cmd_attack(argc, argv);
    if (cmd == "pack") return cmd_pack(argc, argv);
    if (cmd == "pem") return cmd_pem(argc, argv);
    if (cmd == "disasm") return cmd_disasm(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "corpus-stats") return cmd_corpus_stats(argc, argv);
    if (cmd == "gen-corpus") return cmd_gen_corpus(argc, argv);
  } catch (const util::ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  return usage();
}
