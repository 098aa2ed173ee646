// Inside the runtime-recovery technique (paper §III-C): encodes a malware
// sample's code/data sections against a benign donor, dumps the shuffled
// recovery stub's disassembly, executes both versions in the emulator and
// diffs their behavior traces byte for byte.
//
// Build & run:  ./build/examples/craft_and_recover
#include <cstdio>

#include "core/modification.hpp"
#include "corpus/generator.hpp"
#include "isa/isa.hpp"
#include "pe/pe.hpp"
#include "util/entropy.hpp"
#include "vm/sandbox.hpp"
#include "vm/trace_io.hpp"

int main() {
  using namespace mpass;

  corpus::CompiledSample malware = corpus::make_malware(31337);
  const util::ByteBuf original = malware.bytes();
  const util::ByteBuf donor = corpus::make_benign(404).bytes();

  util::Rng rng(1);
  core::ModificationConfig cfg;  // code+data, shuffle on
  const core::ModifiedSample mod =
      core::apply_modification(original, donor, cfg, rng);

  std::printf("original %zu bytes -> modified %zu bytes (APR %.0f%%)\n",
              original.size(), mod.bytes.size(), 100.0 * mod.apr);
  std::printf("%zu perturbable byte positions, %zu byte->key couplings\n",
              mod.perturbable.size(), mod.coupled_count());

  // Show what happened to the sections.
  const pe::PeFile before = pe::PeFile::parse(original);
  const pe::PeFile after = pe::PeFile::parse(mod.bytes);
  std::printf("\n%-10s %-18s %-18s\n", "section", "entropy before",
              "entropy after");
  for (std::size_t i = 0; i < before.sections.size(); ++i)
    std::printf("%-10s %-18.2f %-18.2f\n", before.sections[i].name.c_str(),
                util::shannon_entropy(before.sections[i].data),
                util::shannon_entropy(after.sections[i].data));
  const pe::Section& stub = after.sections.back();
  std::printf("%-10s %-18s %-18.2f  (new: keys + shuffled stub + filler)\n",
              stub.name.c_str(), "-", util::shannon_entropy(stub.data));

  // Peek at the shuffled stub: disassemble from the new entry point.
  const std::uint32_t entry_off = after.entry_point - stub.vaddr;
  std::printf("\nrecovery stub disassembly (first 12 instructions at the "
              "shuffled entry):\n");
  util::ByteReader r({stub.data.data() + entry_off,
                      stub.data.size() - entry_off});
  for (int i = 0; i < 12 && !r.eof(); ++i) {
    try {
      const isa::Instr in = isa::decode(r);
      std::printf("  %s\n", isa::to_string(in).c_str());
      if (in.op == isa::Op::Jmp) {
        // The next chunk lives elsewhere; bytes after an unconditional jmp
        // are a never-executed perturbation gap.
        std::printf("  ... <perturbation gap, next chunk at jmp target>\n");
        break;
      }
    } catch (const util::ParseError&) {
      std::printf("  <gap bytes>\n");
      break;
    }
  }

  // Behavior equality.
  const vm::Sandbox sandbox;
  const vm::SandboxReport a = sandbox.analyze(original);
  const vm::SandboxReport b = sandbox.analyze(mod.bytes);
  std::printf("\noriginal: %llu steps, %zu events | modified: %llu steps, "
              "%zu events\n",
              static_cast<unsigned long long>(a.run.steps), a.trace().size(),
              static_cast<unsigned long long>(b.run.steps), b.trace().size());
  const bool identical = vm::traces_equal(a.trace(), b.trace());
  std::printf("traces identical: %s\n", identical ? "YES" : "NO");
  std::printf("%s", vm::format_trace(a.trace()).c_str());
  if (!identical)
    std::printf("diff:\n%s", vm::diff_traces(a.trace(), b.trace()).c_str());
  return identical ? 0 : 1;
}
