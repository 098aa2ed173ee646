#include "explain/pem.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace mpass::explain {

using util::ByteBuf;

// Most common section names considered (S_all).
constexpr std::size_t kTopH = 30;

PemResult run_pem(std::span<const ByteBuf> malware,
                  std::span<const detect::Detector* const> known_models,
                  const PemConfig& cfg) {
  OBS_SCOPE("pem.run");
  PemResult out;

  // Parse once; skip unparsable inputs.
  std::vector<pe::PeFile> files;
  files.reserve(malware.size());
  for (const ByteBuf& bytes : malware) {
    try {
      files.push_back(pe::PeFile::parse(bytes));
    } catch (const util::ParseError&) {
    }
  }
  if (files.empty() || known_models.empty()) return out;

  // S_all: the top-h most common section names across the corpus.
  std::map<std::string, std::size_t> name_count;
  for (const pe::PeFile& f : files)
    for (const std::string& p : section_players(f)) ++name_count[p];
  std::vector<std::pair<std::size_t, std::string>> ranked;
  for (const auto& [name, count] : name_count)
    ranked.emplace_back(count, name);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [count, name] : ranked) {
    if (out.common_sections.size() >= kTopH) break;
    out.common_sections.push_back(name);
  }
  const std::size_t n_common = out.common_sections.size();
  auto common_index = [&](const std::string& name) -> int {
    for (std::size_t i = 0; i < n_common; ++i)
      if (out.common_sections[i] == name) return static_cast<int>(i);
    return -1;
  };

  // Per model: average Shapley value per common section (Algorithm 1).
  for (const detect::Detector* model : known_models) {
    out.model_names.emplace_back(model->name());
    std::vector<double> sum(n_common, 0.0);

    ShapleyOptions sopts;
    for (const pe::PeFile& file : files) {
      OBS_SCOPE("pem.shapley");
      ++sopts.seed;  // decorrelate MC sampling across samples
      const auto players = section_players(file);
      const std::vector<double> phi = shapley_values(
          file,
          [model](std::span<const std::uint8_t> b) { return model->score(b); },
          sopts);
      for (std::size_t p = 0; p < players.size(); ++p) {
        const int ci = common_index(players[p]);
        if (ci >= 0) sum[static_cast<std::size_t>(ci)] += phi[p];
        // Sections outside S_all are ignored; samples lacking a section
        // contribute phi = 0 for it, which the sum already encodes.
      }
    }
    for (double& s : sum) s /= static_cast<double>(files.size());
    out.avg_shapley.push_back(std::move(sum));
  }

  // Rank per model, take top-k, intersect.
  std::vector<std::vector<std::string>> topk_sets;
  for (const std::vector<double>& avg : out.avg_shapley) {
    std::vector<std::size_t> idx(n_common);
    for (std::size_t i = 0; i < n_common; ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return avg[a] > avg[b]; });
    std::vector<std::string> topk;
    for (std::size_t i = 0; i < std::min(cfg.top_k, n_common); ++i)
      topk.push_back(out.common_sections[idx[i]]);
    out.per_model_topk.push_back(topk);
    topk_sets.push_back(std::move(topk));

    // Ratio statistic: mean of top-2 values over the 3rd value.
    if (n_common >= 3) {
      const double top12 = 0.5 * (avg[idx[0]] + avg[idx[1]]);
      const double top3 = avg[idx[2]];
      out.top2_over_top3.push_back(top3 > 1e-9 ? top12 / top3 : 0.0);
    }
  }

  // Intersection preserving first model's order.
  if (!topk_sets.empty()) {
    for (const std::string& s : topk_sets[0]) {
      bool in_all = true;
      for (std::size_t m = 1; m < topk_sets.size(); ++m)
        if (std::find(topk_sets[m].begin(), topk_sets[m].end(), s) ==
            topk_sets[m].end())
          in_all = false;
      if (in_all) out.critical.push_back(s);
    }
  }

  // When MPASS_TRACE is on, publish each model's section ranking so the
  // trace inspector can show *why* the attack targets the sections it does.
  if (obs::trace_dir()) {
    for (std::size_t m = 0; m < out.model_names.size(); ++m) {
      obs::JsonLine line;
      line.str("ev", "pem").str("model", out.model_names[m]);
      line.strs("ranking", out.per_model_topk[m]);
      if (m < out.top2_over_top3.size())
        line.num("top2_over_top3", out.top2_over_top3[m]);
      obs::append_run_line("pem.jsonl", line.take());
    }
  }
  return out;
}

}  // namespace mpass::explain
