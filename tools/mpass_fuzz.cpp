// mpass_fuzz — structure-aware PE fuzzer + differential round-trip oracle.
//
//   mpass_fuzz run [--iters N] [--seed S] [--out DIR] [--attack-every N]
//                  [--no-minimize]        deterministic fuzz campaign
//   mpass_fuzz repro FILE...              re-run the oracle on saved inputs
//                                         (.bin = PE bytes, .knobs = stub knobs)
//   mpass_fuzz repro-iter I [--seed S]    rebuild iteration I's input and
//                                         run the oracle on it
//   mpass_fuzz make-corpus DIR            write the canonical regression
//                                         inputs (tests/fuzz_corpus/)
//
// Exit code: 0 clean, 1 invariant violation(s), 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "fuzz/fuzzer.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/oracle.hpp"
#include "obs/span.hpp"
#include "pe/pe.hpp"
#include "util/bytes.hpp"
#include "util/serialize.hpp"

namespace {

using namespace mpass;
using util::ByteBuf;

int usage() {
  std::fprintf(stderr,
               "usage: mpass_fuzz <run|repro|repro-iter|make-corpus> [options]\n"
               "  run        [--iters N] [--seed S] [--out DIR]"
               " [--attack-every N] [--no-minimize]\n"
               "  repro      FILE...        (.bin PE input | .knobs stub knobs)\n"
               "  repro-iter I [--seed S]\n"
               "  make-corpus DIR\n");
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

void print_violation(const fuzz::Violation& v) {
  std::fprintf(stderr, "VIOLATION [%s] %s\n",
               std::string(fuzz::kind_name(v.kind)).c_str(),
               v.message.c_str());
}

int cmd_run(int argc, char** argv) {
  fuzz::FuzzConfig cfg;
  cfg.iterations =
      std::strtoull(opt(argc, argv, "--iters", "10000"), nullptr, 10);
  cfg.seed = std::strtoull(opt(argc, argv, "--seed", "1"), nullptr, 10);
  cfg.attack_every =
      std::strtoull(opt(argc, argv, "--attack-every", "64"), nullptr, 10);
  cfg.minimize = !flag(argc, argv, "--no-minimize");
  if (const char* out = opt(argc, argv, "--out")) cfg.out_dir = out;

  fuzz::Fuzzer fuzzer(cfg);
  const fuzz::FuzzStats stats = [&] {
    OBS_SCOPE("fuzz.campaign");
    return fuzzer.run();
  }();
  obs::flush_profile();
  std::printf(
      "fuzz: %zu iterations (seed %llu): parse ok %zu / rejected %zu, "
      "%zu stub checks, %zu attack checks, %zu incremental checks, "
      "%zu violation(s)\n",
      stats.iterations, static_cast<unsigned long long>(cfg.seed),
      stats.parse_ok, stats.parse_rejected, stats.stub_checks,
      stats.attack_checks, stats.incremental_checks, stats.findings.size());
  for (const fuzz::Finding& f : stats.findings) {
    std::fprintf(stderr, "iter %zu (mutators:", f.iteration);
    for (const std::string& m : f.mutators) std::fprintf(stderr, " %s", m.c_str());
    std::fprintf(stderr, ")\n  ");
    print_violation(f.violation);
    if (!f.artifact.empty())
      std::fprintf(stderr, "  minimized input (%zu -> %zu bytes): %s\n",
                   f.input.size(), f.minimized.size(),
                   f.artifact.string().c_str());
  }
  return stats.clean() ? 0 : 1;
}

int repro_one(const std::filesystem::path& path) {
  if (path.extension() == ".knobs") {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", path.string().c_str());
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const core::StubOptions opts = fuzz::parse_stub_knobs(text);
    if (const auto v = fuzz::check_stub_options(opts)) {
      print_violation(*v);
      return 1;
    }
    std::printf("%s: clean (stub-options contract holds)\n",
                path.string().c_str());
    return 0;
  }
  const auto data = util::load_file(path);
  if (!data) {
    std::fprintf(stderr, "error: cannot read %s\n", path.string().c_str());
    return 1;
  }
  const auto violations = fuzz::check_pe_invariants(*data);
  for (const fuzz::Violation& v : violations) print_violation(v);
  if (violations.empty())
    std::printf("%s: clean (%zu bytes)\n", path.string().c_str(),
                data->size());
  return violations.empty() ? 0 : 1;
}

int cmd_repro(int argc, char** argv) {
  if (argc < 1) return usage();
  int rc = 0;
  for (int i = 0; i < argc; ++i)
    if (argv[i][0] != '-' && repro_one(argv[i]) != 0) rc = 1;
  return rc;
}

int cmd_repro_iter(int argc, char** argv) {
  if (argc < 1) return usage();
  fuzz::FuzzConfig cfg;
  cfg.seed = std::strtoull(opt(argc, argv, "--seed", "1"), nullptr, 10);
  const std::size_t iter = std::strtoull(argv[0], nullptr, 10);
  fuzz::Fuzzer fuzzer(cfg);
  std::vector<std::string> mutators;
  const ByteBuf input = fuzzer.input_for_iteration(iter, &mutators);
  std::printf("iteration %zu: %zu bytes, mutators:", iter, input.size());
  for (const std::string& m : mutators) std::printf(" %s", m.c_str());
  std::printf("\n");
  const auto violations = fuzz::check_pe_invariants(input);
  for (const fuzz::Violation& v : violations) print_violation(v);
  return violations.empty() ? 0 : 1;
}

// Writes the canonical minimized regression inputs. These are the committed
// contents of tests/fuzz_corpus/ -- regenerate with this command if the
// on-disk format of the corpus ever needs to change.
int cmd_make_corpus(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::filesystem::path dir = argv[0];
  std::filesystem::create_directories(dir);

  // e_lfanew = 0xFFFFFFFD: lfanew + 4 wraps uint32 to 1 and used to pass
  // the looks_like_pe bound, reading the PE signature out of bounds.
  {
    ByteBuf bytes(64, 0);
    util::write_le<std::uint16_t>(bytes.data(), 0x5A4D);
    util::write_le<std::uint32_t>(bytes.data() + 0x3C, 0xFFFFFFFDu);
    util::save_file(dir / "lfanew_wrap.bin", bytes);
  }

  // Section with raw_ptr=0xFFFFFF00, raw_size=0x200: the sum wraps uint32
  // to 0x100 and used to pass the section bounds check, reading 0x200 bytes
  // out of bounds.
  {
    pe::PeFile f;
    f.add_section(".text", ByteBuf(64, 0x90),
                  pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute);
    ByteBuf bytes = f.build();
    const std::uint32_t lfanew =
        util::read_le<std::uint32_t>(bytes.data() + 0x3C);
    const std::size_t sec = lfanew + 4 + 20 + 224;
    util::write_le<std::uint32_t>(bytes.data() + sec + 16, 0x200u);
    util::write_le<std::uint32_t>(bytes.data() + sec + 20, 0xFFFFFF00u);
    util::save_file(dir / "section_bounds_wrap.bin", bytes);
  }

  // A checksummed file: compute_checksum used to sum the stored CheckSum
  // field as-is, so a built file never verified against itself.
  {
    pe::PeFile f;
    f.add_section(".text", ByteBuf(64, 0xCC),
                  pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute);
    f.update_checksum();
    util::save_file(dir / "checksum_verify.bin", f.build());
  }

  // bss-only section + overlay: parse used to absorb the header padding
  // into the overlay, growing the file on every round trip.
  {
    pe::PeFile f;
    pe::Section bss;
    bss.name = ".bss";
    bss.vaddr = f.next_free_rva();
    bss.vsize = 0x400;
    bss.characteristics = pe::kScnUninitializedData | pe::kScnMemRead |
                          pe::kScnMemWrite;
    f.sections.push_back(std::move(bss));
    f.overlay = util::to_bytes("OVERLAY!");
    util::save_file(dir / "overlay_hdrpad.bin", f.build());
  }

  // Unaligned SizeOfRawData in front of an overlay: the file-alignment
  // padding between section data and overlay must not leak into overlay.
  {
    pe::PeFile f;
    f.add_section(".data", ByteBuf(100, 0xAB),
                  pe::kScnInitializedData | pe::kScnMemRead);
    f.overlay = util::to_bytes("overlay-tail");
    ByteBuf bytes = f.build();
    const std::uint32_t lfanew =
        util::read_le<std::uint32_t>(bytes.data() + 0x3C);
    util::write_le<std::uint32_t>(bytes.data() + lfanew + 4 + 20 + 224 + 16,
                                  100u);
    util::save_file(dir / "overlay_unaligned.bin", bytes);
  }

  // FileAlignment > SectionAlignment: reparse reads padded raw data back, so
  // SizeOfImage (sized from unpadded bytes) grew on the second round trip.
  {
    pe::PeFile f;
    f.add_section(".data", ByteBuf(512, 0xAB),
                  pe::kScnInitializedData | pe::kScnMemRead);
    ByteBuf bytes = f.build();
    const std::uint32_t lfanew =
        util::read_le<std::uint32_t>(bytes.data() + 0x3C);
    util::write_le<std::uint32_t>(bytes.data() + lfanew + 4 + 20 + 36, 0x8000u);
    util::save_file(dir / "filealign_gt_sectalign.bin", bytes);
  }

  // Section at vaddr = 0xFFFFFFFF: vaddr + span wrapped uint32, so
  // section_by_rva missed the section's own vaddr.
  {
    pe::PeFile f;
    f.add_section(".data", ByteBuf(512, 0xAB),
                  pe::kScnInitializedData | pe::kScnMemRead);
    ByteBuf bytes = f.build();
    const std::uint32_t lfanew =
        util::read_le<std::uint32_t>(bytes.data() + 0x3C);
    const std::size_t sec = lfanew + 4 + 20 + 224;
    util::write_le<std::uint32_t>(bytes.data() + sec + 12, 0xFFFFFFFFu);
    util::save_file(dir / "vaddr_wrap.bin", bytes);
  }

  // Import directory with count = 0xFFFFFFFF: decode_imports reserved the
  // count before reading any payload, throwing bad_alloc straight through
  // read_imports' ParseError handler.
  {
    util::ByteWriter w;
    w.u32(0x31504D49u);  // 'IMP1'
    w.u32(0xFFFFFFFFu);
    pe::PeFile f;
    const std::size_t idx = f.add_section(
        ".idata", w.take(), pe::kScnInitializedData | pe::kScnMemRead);
    f.dirs[pe::kDirImport].rva = f.sections[idx].vaddr;
    f.dirs[pe::kDirImport].size = 8;
    util::save_file(dir / "imports_count_overflow.bin", f.build());
  }

  // Stub knobs: max_gap < min_gap used to underflow the gap bound into a
  // multi-GB allocation; chunk_items = 0 is an invalid below() bound.
  {
    core::StubOptions opts;
    opts.min_gap = 16;
    opts.max_gap = 4;
    std::ofstream(dir / "stub_gap_underflow.knobs", std::ios::binary)
        << fuzz::format_stub_knobs(opts);
  }
  {
    core::StubOptions opts;
    opts.chunk_items = 0;
    std::ofstream(dir / "stub_zero_chunk.knobs", std::ios::binary)
        << fuzz::format_stub_knobs(opts);
  }

  std::printf("wrote regression corpus to %s\n", dir.string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  argc -= 2;
  argv += 2;
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "repro") return cmd_repro(argc, argv);
  if (cmd == "repro-iter") return cmd_repro_iter(argc, argv);
  if (cmd == "make-corpus") return cmd_make_corpus(argc, argv);
  return usage();
}
