#include "obs/trace_check.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace mpass::obs {

namespace {

void add_error(std::vector<std::string>* errors, std::string_view where,
               std::size_t line_no, std::string_view msg) {
  if (!errors) return;
  std::string e(where);
  e += ':';
  e += std::to_string(line_no);
  e += ": ";
  e += msg;
  errors->push_back(std::move(e));
}

bool want_str(const Json& obj, std::string_view key, std::string* out) {
  const Json* v = obj.get(key);
  if (!v || !v->is_string()) return false;
  if (out) *out = v->str();
  return true;
}

bool want_num(const Json& obj, std::string_view key, double* out) {
  const Json* v = obj.get(key);
  if (!v || !v->is_number()) return false;
  if (out) *out = v->number();
  return true;
}

bool want_bool(const Json& obj, std::string_view key, bool* out) {
  const Json* v = obj.get(key);
  if (!v || !v->is_bool()) return false;
  if (out) *out = v->boolean();
  return true;
}

std::optional<std::string> read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

}  // namespace

std::optional<SampleTraceData> parse_sample_trace(
    std::string_view text, std::string_view where,
    std::vector<std::string>* errors) {
  SampleTraceData out;
  const std::size_t before = errors ? errors->size() : 0;
  bool has_start = false;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++line_no;

    const std::optional<Json> parsed = Json::parse(line);
    if (!parsed || !parsed->is_object()) {
      add_error(errors, where, line_no, "malformed JSON object");
      continue;
    }
    const Json& obj = *parsed;
    std::string ev;
    if (!want_str(obj, "ev", &ev)) {
      add_error(errors, where, line_no, "missing \"ev\"");
      continue;
    }
    if (line_no == 1 && ev != "start") {
      add_error(errors, where, line_no, "first event must be \"start\"");
    }
    if (out.has_end) {
      add_error(errors, where, line_no, "event after \"end\"");
      continue;
    }

    if (ev == "start") {
      double seed = 0, budget = 0;
      if (!want_str(obj, "attack", &out.attack) ||
          !want_str(obj, "target", &out.target) ||
          !want_str(obj, "sample", &out.sample) ||
          !want_num(obj, "seed", &seed) || !want_num(obj, "budget", &budget)) {
        add_error(errors, where, line_no, "bad \"start\" fields");
        continue;
      }
      if (out.sample.size() != 16 ||
          out.sample.find_first_not_of("0123456789abcdef") !=
              std::string::npos)
        add_error(errors, where, line_no, "\"sample\" is not a 16-hex digest");
      if (has_start)
        add_error(errors, where, line_no, "duplicate \"start\"");
      has_start = true;
      out.seed = static_cast<std::uint64_t>(seed);
      out.budget = static_cast<std::uint64_t>(budget);
    } else if (ev == "query") {
      SampleTraceData::Query q;
      double i = 0;
      if (!want_num(obj, "i", &i) ||
          !want_bool(obj, "malicious", &q.malicious) ||
          !want_num(obj, "score", &q.score)) {
        add_error(errors, where, line_no, "bad \"query\" fields");
        continue;
      }
      q.i = static_cast<std::uint64_t>(i);
      if (q.i != out.queries.size() + 1)
        add_error(errors, where, line_no,
                  "query index " + std::to_string(q.i) +
                      " not contiguous (expected " +
                      std::to_string(out.queries.size() + 1) + ")");
      if (q.score < 0.0 || q.score > 1.0)
        add_error(errors, where, line_no, "query score outside [0,1]");
      out.queries.push_back(q);
      if (!q.malicious && out.first_evasion == 0)
        out.first_evasion = out.queries.size();
    } else if (ev == "opt") {
      SampleTraceData::Opt o;
      double iter = 0;
      if (!want_num(obj, "iter", &iter) || !want_num(obj, "loss", &o.loss)) {
        add_error(errors, where, line_no, "bad \"opt\" fields");
        continue;
      }
      o.iter = static_cast<std::uint64_t>(iter);
      if (!out.opts.empty() && o.iter <= out.opts.back().iter)
        add_error(errors, where, line_no, "opt iter not increasing");
      out.opts.push_back(o);
    } else if (ev == "action") {
      if (!want_str(obj, "kind", nullptr)) {
        add_error(errors, where, line_no, "bad \"action\" fields");
        continue;
      }
      ++out.actions;
    } else if (ev == "end") {
      double queries = 0;
      if (!want_bool(obj, "success", &out.success) ||
          !want_num(obj, "queries", &queries) ||
          !want_num(obj, "apr", &out.apr) || !want_num(obj, "ms", &out.ms) ||
          !want_bool(obj, "functional", &out.functional)) {
        add_error(errors, where, line_no, "bad \"end\" fields");
        continue;
      }
      out.end_queries = static_cast<std::uint64_t>(queries);
      out.has_end = true;
      if (out.end_queries != out.queries.size())
        add_error(errors, where, line_no,
                  "end.queries=" + std::to_string(out.end_queries) +
                      " != emitted query events (" +
                      std::to_string(out.queries.size()) + ")");
      if (out.success && out.first_evasion == 0)
        add_error(errors, where, line_no,
                  "end.success without a benign query");
    } else {
      add_error(errors, where, line_no, "unknown event \"" + ev + "\"");
    }
  }

  if (line_no == 0) {
    add_error(errors, where, 0, "empty trace file");
    return std::nullopt;
  }
  if (!has_start) add_error(errors, where, line_no, "missing \"start\"");
  if (!out.has_end) add_error(errors, where, line_no, "missing \"end\"");
  if (errors && errors->size() != before) return std::nullopt;
  return out;
}

TraceCheckReport check_trace_dir(const std::filesystem::path& dir) {
  TraceCheckReport rep;
  if (!std::filesystem::is_directory(dir)) {
    rep.errors.push_back("not a directory: " + dir.string());
    return rep;
  }

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".jsonl") files.push_back(entry.path());
  std::sort(files.begin(), files.end());

  auto count_lines = [&rep](std::string_view text) {
    for (char c : text)
      if (c == '\n') ++rep.lines;
  };

  for (const std::filesystem::path& path : files) {
    ++rep.files;
    const std::string name = path.filename().string();
    const std::optional<std::string> text = read_text(path);
    if (!text) {
      rep.errors.push_back(name + ": unreadable");
      continue;
    }
    count_lines(*text);

    if (name == "cells.jsonl" || name == "pem.jsonl") {
      std::size_t line_no = 0;
      std::size_t pos = 0;
      while (pos < text->size()) {
        std::size_t eol = text->find('\n', pos);
        if (eol == std::string::npos) eol = text->size();
        const std::string_view line =
            std::string_view(*text).substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) continue;
        ++line_no;
        const std::optional<Json> parsed = Json::parse(line);
        if (!parsed || !parsed->is_object()) {
          add_error(&rep.errors, name, line_no, "malformed JSON object");
          continue;
        }
        std::string ev;
        if (!want_str(*parsed, "ev", &ev)) {
          add_error(&rep.errors, name, line_no, "missing \"ev\"");
          continue;
        }
        if (name == "cells.jsonl") {
          CellTraceData c;
          double n = 0, traced = 0, tq = 0, successes = 0, eq = 0;
          if (ev != "cell" || !want_str(*parsed, "attack", &c.attack) ||
              !want_str(*parsed, "target", &c.target) ||
              !want_num(*parsed, "n", &n) ||
              !want_num(*parsed, "traced", &traced) ||
              !want_num(*parsed, "total_queries", &tq) ||
              !want_num(*parsed, "successes", &successes) ||
              !want_num(*parsed, "evasion_queries", &eq) ||
              !want_num(*parsed, "wall_ms", &c.wall_ms)) {
            add_error(&rep.errors, name, line_no, "bad \"cell\" line");
            continue;
          }
          c.n = static_cast<std::uint64_t>(n);
          c.traced = static_cast<std::uint64_t>(traced);
          c.total_queries = static_cast<std::uint64_t>(tq);
          c.successes = static_cast<std::uint64_t>(successes);
          c.evasion_queries = static_cast<std::uint64_t>(eq);
          rep.data.cells.push_back(std::move(c));
        } else {
          const Json* ranking = parsed->get("ranking");
          bool ranking_ok = ranking && ranking->is_array();
          if (ranking_ok)
            for (const Json& item : ranking->items())
              if (!item.is_string()) ranking_ok = false;
          if (ev != "pem" || !want_str(*parsed, "model", nullptr) ||
              !ranking_ok) {
            add_error(&rep.errors, name, line_no, "bad \"pem\" line");
            continue;
          }
          ++rep.data.pem_lines;
        }
      }
      continue;
    }

    if (auto sample = parse_sample_trace(*text, name, &rep.errors))
      rep.data.samples.push_back(std::move(*sample));
  }

  // Query-budget and AVQ reconciliation: per (attack, target), the *last*
  // cell line wins (re-runs append). Only fully traced cells (traced == n
  // and all n sample files present) are reconcilable -- cache hits execute
  // nothing and leave no fresh trace.
  std::map<std::pair<std::string, std::string>, const CellTraceData*> last;
  for (const CellTraceData& c : rep.data.cells)
    last[{c.attack, c.target}] = &c;
  struct Sums {
    std::uint64_t files = 0, queries = 0, successes = 0, evasion_queries = 0;
  };
  std::map<std::pair<std::string, std::string>, Sums> sums;
  for (const SampleTraceData& s : rep.data.samples) {
    Sums& sum = sums[{s.attack, s.target}];
    ++sum.files;
    sum.queries += s.end_queries;
    if (s.success) {
      ++sum.successes;
      sum.evasion_queries += s.first_evasion;
    }
  }
  for (const auto& [key, cell] : last) {
    if (cell->traced != cell->n) {
      rep.warnings.push_back("cell " + key.first + " x " + key.second +
                             ": " + std::to_string(cell->n - cell->traced) +
                             " cache hits, not reconcilable");
      continue;
    }
    const auto it = sums.find(key);
    const Sums sum = it == sums.end() ? Sums{} : it->second;
    const std::string where = "cell " + key.first + " x " + key.second + ": ";
    if (sum.files != cell->n) {
      rep.errors.push_back(where + "traced=" + std::to_string(cell->traced) +
                           " but " + std::to_string(sum.files) +
                           " sample trace files");
      continue;
    }
    const auto mismatch = [&](const char* what, std::uint64_t traced,
                              const char* field, std::uint64_t cell_value) {
      if (traced != cell_value)
        rep.errors.push_back(where + what + " " + std::to_string(traced) +
                             " != cell " + field + " " +
                             std::to_string(cell_value));
    };
    mismatch("sample query sum", sum.queries, "total_queries",
             cell->total_queries);
    mismatch("successful samples", sum.successes, "successes",
             cell->successes);
    mismatch("first-evasion sum", sum.evasion_queries, "evasion_queries",
             cell->evasion_queries);
  }

  return rep;
}

}  // namespace mpass::obs
