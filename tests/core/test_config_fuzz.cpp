// Config fuzz over the shipped configs: every key line is mutated in turn
// and pushed through the parse step its file normally takes. A misspelt key
// must fail naming itself and its line; a bad value must fail naming its
// key, or parse; nothing may crash (this binary runs under ASan + UBSan in
// CI). The mutations are enumerated, not drawn, so every run is the same.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/explore.hpp"

namespace sctm::core {
namespace {

/// Repo root, located from this source file (as in
/// Experiment.ShippedConfigsParse).
std::string repo_root() {
  std::string root = __FILE__;
  const auto cut = root.rfind("tests/");
  return cut == std::string::npos ? std::string() : root.substr(0, cut);
}

struct Shipped {
  const char* path;  // repo-root relative
  bool candidates;   // candidates file (explore) or experiment config
};

constexpr Shipped kShipped[] = {
    {"configs/accuracy_fft_onoc.cfg", false},
    {"configs/exec_jacobi_mesh3d.cfg", false},
    {"configs/exec_sort_hybrid.cfg", false},
    {"configs/replay_fft_file_topo.cfg", false},
    {"configs/replay_lu_swmr.cfg", false},
    {"configs/explore_screen.cfg", true},
    {"perfbench/candidates.cfg", true},
    {"perfbench/fabrics.cfg", true},
};

/// The parse step `file` takes: experiment_from_config for an experiment,
/// candidates_from_config + explore_config_from + reject_unread("") for a
/// candidates file (what `sctm_cli explore` runs before any replay).
void parse(const std::vector<std::string>& lines, const Shipped& file) {
  std::string text;
  for (const auto& l : lines) text += l + "\n";
  const Config cfg = Config::from_string(text);
  if (!file.candidates) {
    (void)experiment_from_config(cfg);
    return;
  }
  (void)candidates_from_config(cfg, file.path);
  (void)explore_config_from(cfg);
  cfg.reject_unread("");
}

/// How an error names `key`: candidate keys are reported relative to their
/// candidate ("candidate 'a': ... 'onoc.wavelengths'").
bool names_key(const std::string& what, const std::string& key,
               const std::string& quote) {
  const std::string prefix = "candidate.";
  if (key.rfind(prefix, 0) == 0) {
    const auto dot = key.find('.', prefix.size());
    const std::string name = key.substr(prefix.size(), dot - prefix.size());
    return what.find("candidate '" + name + "'") != std::string::npos &&
           what.find(quote + key.substr(dot + 1) + quote) != std::string::npos;
  }
  return what.find(quote + key + quote) != std::string::npos;
}

bool names_line(const std::string& what, const Shipped& file,
                std::size_t line) {
  const std::string n = std::to_string(line);
  return what.find("(line " + n + ")") != std::string::npos ||
         what.find(std::string(file.path) + ":" + n + ":") !=
             std::string::npos;
}

struct Loaded {
  std::vector<std::string> lines;
  std::vector<std::size_t> key_lines;  // indices of "key = value" lines
};

Loaded load(const Shipped& file) {
  std::ifstream in(repo_root() + file.path);
  Loaded out;
  if (!in) return out;
  for (std::string l; std::getline(in, l);) {
    // Shipped topology files are repo-root relative; anchor them.
    if (const auto at = l.find("= configs/"); at != std::string::npos) {
      l.insert(at + 2, repo_root());
    }
    if (!l.empty() && l[0] != '#' && l.find('=') != std::string::npos) {
      out.key_lines.push_back(out.lines.size());
    }
    out.lines.push_back(l);
  }
  return out;
}

std::string key_of(const std::string& line) {
  std::string k = line.substr(0, line.find('='));
  while (!k.empty() && k.back() == ' ') k.pop_back();
  return k;
}

TEST(ConfigFuzz, ShippedConfigsParseUnmutated) {
  for (const auto& file : kShipped) {
    const Loaded cfg = load(file);
    if (cfg.lines.empty()) GTEST_SKIP() << file.path << " not reachable";
    EXPECT_NO_THROW(parse(cfg.lines, file)) << file.path;
  }
}

TEST(ConfigFuzz, MisspeltKeyFailsNamingItselfAndItsLine) {
  for (const auto& file : kShipped) {
    const Loaded cfg = load(file);
    if (cfg.lines.empty()) GTEST_SKIP() << file.path << " not reachable";
    for (const std::size_t i : cfg.key_lines) {
      const std::string key = key_of(cfg.lines[i]);
      const std::string typo = key.substr(0, key.size() - 1);
      auto lines = cfg.lines;
      lines[i] = typo + cfg.lines[i].substr(key.size());
      try {
        parse(lines, file);
        ADD_FAILURE() << file.path << ": accepted '" << typo << "'";
      } catch (const std::exception& e) {
        const std::string what = e.what();
        EXPECT_TRUE(names_key(what, typo, "'") && names_line(what, file, i + 1))
            << file.path << ": '" << typo << "' (line " << i + 1
            << "): " << what;
      }
    }
  }
}

TEST(ConfigFuzz, BadValueFailsNamingItsKeyOrParses) {
  for (const auto& file : kShipped) {
    const Loaded cfg = load(file);
    if (cfg.lines.empty()) GTEST_SKIP() << file.path << " not reachable";
    for (const std::size_t i : cfg.key_lines) {
      const std::string key = key_of(cfg.lines[i]);
      for (const char* value : {"-1", "abc", "4294967296", "nan", ""}) {
        auto lines = cfg.lines;
        lines[i] = key + " = " + value;
        try {
          parse(lines, file);
        } catch (const std::exception& e) {
          EXPECT_TRUE(names_key(e.what(), key, ""))
              << file.path << ": " << lines[i] << ": " << e.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace sctm::core
