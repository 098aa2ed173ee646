#include "vm/sandbox.hpp"

#include "obs/span.hpp"

namespace mpass::vm {

SandboxReport Sandbox::analyze(const util::ByteBuf& file) const {
  OBS_SCOPE("vm.sandbox");
  SandboxReport report;
  try {
    Machine m(file);
    report.parsed = true;
    report.run = m.run(fuel_);
  } catch (const util::ParseError&) {
    return report;
  }
  report.executed_ok = report.run.ok();
  report.malicious =
      report.executed_ok && report.run.malicious_calls() > 0;
  return report;
}

bool Sandbox::functionality_preserved(const util::ByteBuf& original,
                                      const util::ByteBuf& modified) const {
  const SandboxReport a = analyze(original);
  const SandboxReport b = analyze(modified);
  if (!a.executed_ok || !b.executed_ok) return false;
  return traces_equal(a.trace(), b.trace());
}

}  // namespace mpass::vm
