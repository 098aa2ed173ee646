// Program specifications: the intermediate representation between "what a
// sample does" (behaviors) and the PE file the codegen compiles it into.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pe/pe.hpp"

namespace mpass::corpus {

/// A runtime behavior a program exhibits; compiled to MVM code by codegen.
enum class Behavior {
  // -- malicious --
  Persistence,    // registry autorun with shady value
  C2Beacon,       // connect + beacon loop to C2 URL
  Ransomware,     // ransom note + encrypt victim files + delete shadow copies
  Stealer,        // credential theft + exfiltration
  Keylogger,      // keylog start/dump + exfiltration
  Dropper,        // decode embedded payload, write exe, spawn it
  Injector,       // decode shellcode, inject into a process
  Wiper,          // destroy victim files + delete shadow copies
  OverlayLoader,  // locate own overlay via section table, decode, exfiltrate
  // -- benign --
  HelloReport,    // print help/usage text
  ConfigReader,   // read + checksum a config file
  Calculator,     // arithmetic loop, store + print
  TextProcessor,  // transform a string in memory, print
  FileWriter,     // write a log file
  UiGreeting,     // message box
  SelfCheck,      // read + checksum own header bytes
  Telemetry,      // benign network beacon (gray-area APIs, benign content)
  Updater,        // benign autorun registration (gray-area APIs)
};

/// MVM API ids a behavior's generated code invokes.
std::vector<std::uint16_t> behavior_apis(Behavior b);

/// Malware families / benign application archetypes (drives behavior mix).
enum class Family {
  Ransom,
  InfoStealer,
  Backdoor,
  DropperBot,
  KeylogSpy,
  WiperKit,
  BenignUtility,
  BenignEditor,
  BenignUpdater,
  BenignGame,
};

std::string_view family_name(Family f);
bool is_malicious_family(Family f);

/// Everything needed to deterministically compile one sample.
struct ProgramSpec {
  std::uint64_t seed = 0;  // drives all intra-sample randomness
  Family family = Family::BenignUtility;
  std::vector<Behavior> behaviors;
  std::vector<std::string> extra_strings;  // embedded in .rdata
  std::string text_name = ".text";  // section names (attackable header fields)
  std::string data_name = ".data";
  std::string rdata_name = ".rdata";
  std::size_t rsrc_size = 0;        // 0 = no .rsrc section
  bool has_reloc = false;
  bool hide_sensitive_imports = false;  // "dynamic API resolution" malware
  std::uint32_t timestamp = 0x5F000000;
  util::ByteBuf overlay_payload;    // plaintext; codegen encodes + appends
  util::ByteBuf inert_overlay;      // non-loaded overlay (installer payload)
  // Imported-but-unused APIs (benign programs import far more than they
  // call; this keeps import tables from being a trivially separable signal,
  // as in real PE corpora).
  std::vector<std::uint16_t> extra_imports;
};

/// Provenance of a compiled sample, carried through experiments.
struct SampleMeta {
  std::uint64_t seed = 0;
  Family family = Family::BenignUtility;
  bool malicious = false;
  bool overlay_dependent = false;
  std::vector<Behavior> behaviors;
};

/// Result of compiling a ProgramSpec.
struct CompiledSample {
  pe::PeFile pe;
  SampleMeta meta;

  util::ByteBuf bytes() const { return pe.build(); }
};

}  // namespace mpass::corpus
