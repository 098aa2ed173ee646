#include "vm/api.hpp"

#include <array>
#include <vector>

namespace mpass::vm {

namespace {
struct ApiInfo {
  std::uint16_t id;
  std::string_view name;
};

constexpr ApiInfo kApis[] = {
    {0x0001, "Print"},        {0x0002, "GetTime"},
    {0x0003, "OpenFile"},     {0x0004, "ReadFile"},
    {0x0005, "WriteFile"},    {0x0006, "CloseFile"},
    {0x0007, "Alloc"},        {0x0008, "GetEnv"},
    {0x0009, "MsgBox"},       {0x000A, "Rand"},
    {0x000B, "Sleep"},        {0x000C, "ExitProcess"},
    {0x000D, "VProtect"},     {0x000E, "GetSelfSize"},
    {0x000F, "ReadSelf"},     {0x0010, "Checksum"},
    {0x0100, "RegSetAutorun"}, {0x0101, "RegDeleteKey"},
    {0x0102, "Connect"},      {0x0103, "Send"},
    {0x0104, "Recv"},         {0x0105, "EnumFiles"},
    {0x0106, "EncryptFile"},  {0x0107, "DeleteShadow"},
    {0x0108, "KeylogStart"},  {0x0109, "KeylogDump"},
    {0x010A, "InjectProc"},   {0x010B, "CreateProc"},
    {0x010C, "WriteExe"},     {0x010D, "SetHidden"},
    {0x010E, "Screenshot"},   {0x010F, "StealCreds"},
};

constexpr std::size_t kNumApis = std::size(kApis);

std::array<std::uint16_t, kNumApis> make_all() {
  std::array<std::uint16_t, kNumApis> out{};
  for (std::size_t i = 0; i < kNumApis; ++i) out[i] = kApis[i].id;
  return out;
}
const auto kAllIds = make_all();

std::vector<std::uint16_t> filter(bool sensitive) {
  std::vector<std::uint16_t> out;
  for (const auto& a : kApis)
    if (is_sensitive(a.id) == sensitive) out.push_back(a.id);
  return out;
}
const std::vector<std::uint16_t> kSensitive = filter(true);
const std::vector<std::uint16_t> kBenign = filter(false);
}  // namespace

std::string_view api_name(std::uint16_t api) {
  for (const auto& a : kApis)
    if (a.id == api) return a.name;
  return "Api_unknown";
}

std::span<const std::uint16_t> all_apis() { return kAllIds; }
std::span<const std::uint16_t> sensitive_apis() { return kSensitive; }
std::span<const std::uint16_t> benign_apis() { return kBenign; }

}  // namespace mpass::vm
