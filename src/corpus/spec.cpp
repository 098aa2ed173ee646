#include "corpus/spec.hpp"

#include "vm/api.hpp"

namespace mpass::corpus {

using vm::Api;

std::vector<std::uint16_t> behavior_apis(Behavior b) {
  auto ids = [](std::initializer_list<Api> list) {
    std::vector<std::uint16_t> out;
    for (Api a : list) out.push_back(static_cast<std::uint16_t>(a));
    return out;
  };
  switch (b) {
    case Behavior::Persistence:
      return ids({Api::RegSetAutorun});
    case Behavior::C2Beacon:
      return ids({Api::Connect, Api::Send, Api::Recv});
    case Behavior::Ransomware:
      return ids({Api::OpenFile, Api::WriteFile, Api::CloseFile,
                  Api::EnumFiles, Api::EncryptFile, Api::DeleteShadow});
    case Behavior::Stealer:
      return ids({Api::StealCreds, Api::Connect, Api::Send});
    case Behavior::Keylogger:
      return ids({Api::KeylogStart, Api::Sleep, Api::KeylogDump, Api::Connect,
                  Api::Send});
    case Behavior::Dropper:
      return ids({Api::WriteExe, Api::CreateProc});
    case Behavior::Injector:
      return ids({Api::InjectProc});
    case Behavior::Wiper:
      return ids({Api::EnumFiles, Api::EncryptFile, Api::RegDeleteKey,
                  Api::DeleteShadow});
    case Behavior::OverlayLoader:
      return ids({Api::ReadSelf, Api::Connect, Api::Send, Api::WriteExe,
                  Api::CreateProc});
    case Behavior::HelloReport:
      return ids({Api::Print});
    case Behavior::ConfigReader:
      return ids({Api::OpenFile, Api::ReadFile, Api::Checksum,
                  Api::CloseFile, Api::Print});
    case Behavior::Calculator:
      return ids({Api::Print});
    case Behavior::TextProcessor:
      return ids({Api::Print});
    case Behavior::FileWriter:
      return ids({Api::OpenFile, Api::WriteFile, Api::CloseFile});
    case Behavior::UiGreeting:
      return ids({Api::MsgBox});
    case Behavior::SelfCheck:
      return ids({Api::ReadSelf, Api::Checksum, Api::Print});
    case Behavior::Telemetry:
      return ids({Api::Connect, Api::Send});
    case Behavior::Updater:
      return ids({Api::RegSetAutorun, Api::Print});
  }
  return {};
}

std::string_view family_name(Family f) {
  switch (f) {
    case Family::Ransom: return "ransom";
    case Family::InfoStealer: return "infostealer";
    case Family::Backdoor: return "backdoor";
    case Family::DropperBot: return "dropperbot";
    case Family::KeylogSpy: return "keylogspy";
    case Family::WiperKit: return "wiperkit";
    case Family::BenignUtility: return "benign-utility";
    case Family::BenignEditor: return "benign-editor";
    case Family::BenignUpdater: return "benign-updater";
    case Family::BenignGame: return "benign-game";
  }
  return "unknown";
}

bool is_malicious_family(Family f) {
  switch (f) {
    case Family::Ransom:
    case Family::InfoStealer:
    case Family::Backdoor:
    case Family::DropperBot:
    case Family::KeylogSpy:
    case Family::WiperKit:
      return true;
    default:
      return false;
  }
}

}  // namespace mpass::corpus
