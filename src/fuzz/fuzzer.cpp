#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "corpus/generator.hpp"
#include "fuzz/mutator.hpp"
#include "obs/span.hpp"
#include "pe/import.hpp"
#include "pe/pe.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpass::fuzz {

using util::ByteBuf;
using util::Rng;

namespace {

constexpr std::size_t kMaxRounds = 4;        // mutation rounds per iteration
constexpr std::size_t kMaxInput = 1u << 20;  // inputs are clamped to this size

/// Stable per-iteration RNG stream: mixing the master seed with the
/// iteration index makes every iteration reproducible in isolation.
Rng iteration_rng(std::uint64_t seed, std::size_t iter) {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (iter + 1));
  return Rng(util::splitmix64(state));
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

core::StubOptions random_stub_knobs(Rng& rng) {
  core::StubOptions opts;
  opts.shuffle = rng.chance(0.8);
  // Deliberately includes invalid settings (chunk_items == 0, max < min):
  // the oracle checks they are rejected, not that they work.
  opts.chunk_items = rng.below(5);
  opts.min_gap = rng.below(32);
  opts.max_gap = rng.below(48);
  opts.lead_filler = rng.below(512);
  return opts;
}

core::ModificationConfig random_valid_attack_cfg(Rng& rng) {
  core::ModificationConfig cfg;
  cfg.targets = rng.chance(0.8) ? core::TargetMode::CodeData
                                : core::TargetMode::OtherSec;
  cfg.stub.shuffle = rng.chance(0.9);
  cfg.stub.chunk_items = 1 + rng.below(4);
  cfg.stub.min_gap = rng.below(16);
  cfg.stub.max_gap = cfg.stub.min_gap + rng.below(24);
  cfg.filler_ratio = rng.uniform(0.0, 0.5);
  cfg.min_tail = 128 + rng.below(1024);
  cfg.modify_headers = rng.chance(0.7);
  cfg.push_keys_beyond = rng.chance(0.5) ? 0 : rng.below(32768);
  return cfg;
}

}  // namespace

core::StubOptions parse_stub_knobs(std::string_view text) {
  core::StubOptions opts;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      throw util::ParseError("knobs: missing '=' in line");
    const std::string_view key = line.substr(0, eq);
    const std::string value(line.substr(eq + 1));
    std::size_t parsed = 0;
    const unsigned long long v = std::stoull(value, &parsed);
    if (parsed != value.size())
      throw util::ParseError("knobs: bad value for " + std::string(key));
    if (key == "shuffle") opts.shuffle = v != 0;
    else if (key == "chunk_items") opts.chunk_items = v;
    else if (key == "min_gap") opts.min_gap = v;
    else if (key == "max_gap") opts.max_gap = v;
    else if (key == "lead_filler") opts.lead_filler = v;
    else throw util::ParseError("knobs: unknown key " + std::string(key));
  }
  return opts;
}

std::string format_stub_knobs(const core::StubOptions& opts) {
  std::string out;
  out += "shuffle=" + std::to_string(opts.shuffle ? 1 : 0) + "\n";
  out += "chunk_items=" + std::to_string(opts.chunk_items) + "\n";
  out += "min_gap=" + std::to_string(opts.min_gap) + "\n";
  out += "max_gap=" + std::to_string(opts.max_gap) + "\n";
  out += "lead_filler=" + std::to_string(opts.lead_filler) + "\n";
  return out;
}

std::vector<ByteBuf> Fuzzer::seed_corpus(std::uint64_t seed) {
  std::vector<ByteBuf> seeds;
  Rng rng(seed ^ 0x5EEDC0DEULL);

  // Real corpus samples (sandbox-validated by construction). Their seeds are
  // fixed offsets of the master seed so the whole corpus is deterministic.
  const ByteBuf malware = corpus::make_malware(90000 + seed % 100).bytes();
  const ByteBuf benign = corpus::make_benign(91000 + seed % 100).bytes();
  seeds.push_back(malware);
  seeds.push_back(benign);

  // A fully modified (attacked) sample: the adversarial shape the rest of
  // the pipeline feeds back into the parser constantly.
  {
    core::ModificationConfig cfg;
    Rng mod_rng(seed ^ 0xA77ACCULL);
    seeds.push_back(core::apply_modification(malware, benign, cfg, mod_rng).bytes);
  }

  // Handcrafted structural edge cases.
  {
    pe::PeFile f;  // minimal: one tiny code section
    f.add_section(".text", rng.bytes(64),
                  pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute);
    f.entry_point = f.sections[0].vaddr;
    seeds.push_back(f.build());
  }
  {
    pe::PeFile f;  // bss-only section (no raw data) + overlay
    pe::Section bss;
    bss.name = ".bss";
    bss.vaddr = f.next_free_rva();
    bss.vsize = 0x400;
    bss.characteristics = pe::kScnUninitializedData | pe::kScnMemRead |
                          pe::kScnMemWrite;
    f.sections.push_back(std::move(bss));
    f.overlay = util::to_bytes("OVERLAY!");
    seeds.push_back(f.build());
  }
  {
    pe::PeFile f;  // no sections at all, overlay only
    f.overlay = rng.bytes(100);
    seeds.push_back(f.build());
  }
  {
    pe::PeFile f;  // unaligned raw size in front of an overlay
    f.add_section(".data", rng.bytes(100),
                  pe::kScnInitializedData | pe::kScnMemRead);
    f.overlay = util::to_bytes("overlay-tail");
    ByteBuf bytes = f.build();
    // Patch the (only) section's SizeOfRawData down to the true length.
    const std::uint32_t lfanew =
        util::read_le<std::uint32_t>(bytes.data() + 0x3C);
    util::write_le<std::uint32_t>(bytes.data() + lfanew + 4 + 20 + 224 + 16,
                                  100);
    seeds.push_back(std::move(bytes));
  }
  {
    pe::PeFile f;  // import-bearing file with checksum set
    f.add_section(".text", rng.bytes(256),
                  pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute);
    const std::vector<pe::Import> imports = {{0x0001, "Print"},
                                             {0x0103, "Send"}};
    pe::attach_import_section(f, imports);
    f.update_checksum();
    seeds.push_back(f.build());
  }
  // A non-PE blob: exercises the rejection path and generic mutators.
  seeds.push_back(rng.bytes(512));
  return seeds;
}

Fuzzer::Fuzzer(FuzzConfig config)
    : cfg_(std::move(config)), seeds_(seed_corpus(cfg_.seed)) {}

ByteBuf Fuzzer::input_for_iteration(std::size_t iter,
                                    std::vector<std::string>* mutators) const {
  Rng rng = iteration_rng(cfg_.seed, iter);
  ByteBuf input = seeds_[rng.below(seeds_.size())];
  const std::size_t rounds = 1 + rng.below(kMaxRounds);
  const auto applied = mutate(input, rng, rounds);
  if (input.size() > kMaxInput) input.resize(kMaxInput);
  if (mutators) {
    mutators->clear();
    for (const std::string_view name : applied) mutators->emplace_back(name);
  }
  return input;
}

ByteBuf Fuzzer::minimize_input(const ByteBuf& input, std::size_t max_evals) {
  OBS_SCOPE("fuzz.minimize");
  std::size_t evals = 0;
  const auto violates = [&](const ByteBuf& candidate) {
    ++evals;
    return !check_pe_invariants(candidate).empty();
  };
  if (!violates(input)) return input;

  ByteBuf cur = input;
  // Pass 1: drop chunks (halving granularity) while the violation persists.
  bool progress = true;
  while (progress && evals < max_evals) {
    progress = false;
    for (std::size_t chunk = std::max<std::size_t>(cur.size() / 2, 1);
         chunk >= 1 && evals < max_evals; chunk /= 2) {
      for (std::size_t at = 0; at + chunk <= cur.size() && evals < max_evals;) {
        ByteBuf cand;
        cand.reserve(cur.size() - chunk);
        cand.insert(cand.end(), cur.begin(),
                    cur.begin() + static_cast<std::ptrdiff_t>(at));
        cand.insert(cand.end(),
                    cur.begin() + static_cast<std::ptrdiff_t>(at + chunk),
                    cur.end());
        if (!cand.empty() && violates(cand)) {
          cur = std::move(cand);
          progress = true;
        } else {
          at += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  // Pass 2: canonicalize surviving bytes to zero where possible.
  for (std::size_t chunk = std::max<std::size_t>(cur.size() / 2, 1);
       chunk >= 1 && evals < max_evals; chunk /= 2) {
    for (std::size_t at = 0; at + chunk <= cur.size() && evals < max_evals;
         at += chunk) {
      ByteBuf cand = cur;
      std::fill_n(cand.begin() + static_cast<std::ptrdiff_t>(at), chunk, 0);
      if (cand != cur && violates(cand)) cur = std::move(cand);
    }
    if (chunk == 1) break;
  }
  return cur;
}

FuzzStats Fuzzer::run() {
  OBS_SCOPE("fuzz.run");
  FuzzStats stats;
  const bool artifacts = !cfg_.out_dir.empty();
  if (artifacts) std::filesystem::create_directories(cfg_.out_dir);

  const auto record = [&](std::size_t iter, Violation v,
                          std::vector<std::string> mutators, ByteBuf input,
                          const char* ext) {
    Finding f;
    f.iteration = iter;
    f.violation = std::move(v);
    f.mutators = std::move(mutators);
    f.minimized = (cfg_.minimize && !input.empty())
                      ? minimize_input(input)
                      : input;
    f.input = std::move(input);
    if (artifacts && !f.minimized.empty()) {
      char name[128];
      std::snprintf(name, sizeof(name), "crash_iter%06zu_%s%s", iter,
                    std::string(kind_name(f.violation.kind)).c_str(), ext);
      f.artifact = cfg_.out_dir / name;
      util::save_file(f.artifact, f.minimized);
    }
    stats.findings.push_back(std::move(f));
  };

  for (std::size_t iter = 0; iter < cfg_.iterations; ++iter) {
    std::vector<std::string> mutators;
    ByteBuf input = input_for_iteration(iter, &mutators);

    if (artifacts) {
      // Breadcrumb: if the oracle hard-crashes (sanitizer abort), the
      // offending input and its iteration index survive on disk.
      util::save_file(cfg_.out_dir / "pending.bin", input);
      write_text(cfg_.out_dir / "pending_iter.txt",
                 std::to_string(iter) + "\n");
    }

    try {
      (void)pe::PeFile::parse(input);
      ++stats.parse_ok;
    } catch (...) {
      ++stats.parse_rejected;
    }

    for (Violation& v : check_pe_invariants(input))
      record(iter, std::move(v), mutators, input, ".bin");

    if (cfg_.attack_every != 0 &&
        iter % cfg_.attack_every == cfg_.attack_every - 1) {
      Rng krng = iteration_rng(cfg_.seed ^ 0x57AB, iter);
      const core::StubOptions knobs = random_stub_knobs(krng);
      ++stats.stub_checks;
      if (auto v = check_stub_options(knobs)) {
        if (artifacts)
          write_text(cfg_.out_dir /
                         ("crash_iter" + std::to_string(iter) + "_knobs.knobs"),
                     format_stub_knobs(knobs));
        record(iter, std::move(*v), {"stub_knobs"}, {}, ".bin");
      }

      const core::ModificationConfig cfg = random_valid_attack_cfg(krng);
      ++stats.attack_checks;
      if (auto v = check_attack_preserves(seeds_[0], seeds_[1], cfg, krng()))
        record(iter, std::move(*v), {"attack_knobs"}, {}, ".bin");

      // Incremental-forward differential: the mutated input of this
      // iteration doubles as the scored buffer, so structural mutators feed
      // the net shapes the attacks actually produce.
      ++stats.incremental_checks;
      if (auto v = check_incremental_forward(input, krng()))
        record(iter, std::move(*v), mutators, input, ".bin");
    }

    ++stats.iterations;
  }

  if (artifacts) {
    std::filesystem::remove(cfg_.out_dir / "pending.bin");
    std::filesystem::remove(cfg_.out_dir / "pending_iter.txt");
  }
  return stats;
}

}  // namespace mpass::fuzz
