// Documentation staleness tests.
//
// docs/scenario-reference.md claims to document every scenario-file key.
// That claim is only worth something if it is enforced: this suite
// serializes fully-populated specs for all three population variants
// (plus every optional section) and fails if any emitted key is missing
// from the page — so adding a key without documenting it breaks the
// build, not a user. A second test keeps the relative links inside
// docs/ and README.md pointing at files that exist. A layout test keeps
// src/ free of modules that nothing but their own tests call.
//
// FLASHFLOW_REPO_DIR is injected by CMake so the suite finds the
// checked-in markdown from any build directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "scenario/serialize.h"

namespace flashflow {
namespace {

namespace fs = std::filesystem;

fs::path repo_dir() { return fs::path(FLASHFLOW_REPO_DIR); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Specs that together exercise every branch of serialize_scenario():
/// all three populations, topology, speedtest, faults, team,
/// adversaries, background and params sections.
std::vector<scenario::ScenarioSpec> fully_populated_specs() {
  std::vector<scenario::ScenarioSpec> specs;

  {
    scenario::ScenarioSpec spec;
    scenario::Table1PopulationSpec table1;
    table1.rate_limit_mbit = {10, 25};
    table1.background_mbit = 5;
    table1.prior_mbit = 20;
    spec.population = table1;
    spec.name = "docs-table1";
    specs.push_back(std::move(spec));
  }
  {
    scenario::ScenarioSpec spec;
    spec.population = scenario::ShadowPopulationSpec{};
    spec.name = "docs-shadow";
    specs.push_back(std::move(spec));
  }
  {
    scenario::ScenarioSpec spec;
    scenario::SyntheticPopulationSpec synthetic;
    synthetic.relays = 40;
    synthetic.prior_fraction = 0.8;
    spec.population = synthetic;
    spec.team.capacity_bits = {8e8, 8e8, 8e8};
    spec.topology.path_model = scenario::TopologySpec::PathModelKind::kTiered;
    spec.topology.tiers = 2;
    spec.topology.tier_rtt_s = {0.02, 0.065, 0.02};
    spec.topology.rtt_jitter = 0.1;
    spec.speedtest = scenario::SpeedTestWindow{};
    spec.faults.measurer_crash = 0.01;
    spec.faults.relay_disconnect = 0.01;
    spec.faults.report_drop = 0.01;
    spec.faults.report_truncate = 0.01;
    spec.faults.slot_timeout = 0.01;
    spec.adversaries.liar_fraction = 0.1;
    spec.adversaries.forger_fraction = 0.1;
    spec.background.enabled = true;
    spec.background.utilization_mean = 0.2;
    spec.background.utilization_sd = 0.1;
    spec.name = "docs-synthetic";
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Keys a serialized scenario file emits: the text before ':' on every
/// non-comment, non-empty line.
void serialized_keys(const scenario::ScenarioSpec& spec,
                     std::vector<std::string>& keys) {
  std::istringstream lines(scenario::serialize_scenario(spec));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t colon = line.find(':');
    ASSERT_NE(colon, std::string::npos) << "key-less line: " << line;
    keys.push_back(line.substr(0, colon));
  }
}

TEST(DocsStaleness, ScenarioReferenceDocumentsEverySerializedKey) {
  const std::string doc =
      read_file(repo_dir() / "docs" / "scenario-reference.md");
  ASSERT_FALSE(doc.empty());

  int checked = 0;
  for (const scenario::ScenarioSpec& spec : fully_populated_specs()) {
    std::vector<std::string> keys;
    serialized_keys(spec, keys);
    ASSERT_FALSE(keys.empty());
    for (const std::string& key : keys) {
      // Keys are referenced in backticks so a prose mention of a word
      // like "name" cannot mask an undocumented `faults.name`.
      EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
          << "scenario key '" << key
          << "' is serialized by src/scenario/serialize.cpp but not "
             "documented in docs/scenario-reference.md";
      ++checked;
    }
  }
  // All three populations plus the optional sections: a meaningful sweep,
  // not an accidentally-empty loop.
  EXPECT_GE(checked, 50);
}

TEST(DocsStaleness, RelativeLinksInDocsResolve) {
  std::vector<fs::path> pages = {repo_dir() / "README.md"};
  for (const fs::directory_entry& entry :
       fs::directory_iterator(repo_dir() / "docs"))
    if (entry.path().extension() == ".md") pages.push_back(entry.path());
  ASSERT_GE(pages.size(), 5u) << "docs/ tree is missing pages";

  const std::regex link("\\]\\(([^)]+)\\)");
  int checked = 0;
  for (const fs::path& page : pages) {
    const std::string text = read_file(page);
    for (std::sregex_iterator it(text.begin(), text.end(), link), end;
         it != end; ++it) {
      std::string target = (*it)[1].str();
      if (target.rfind("http", 0) == 0) continue;  // external
      const std::size_t fragment = target.find('#');
      if (fragment != std::string::npos) target.resize(fragment);
      if (target.empty()) continue;  // same-page anchor
      EXPECT_TRUE(fs::exists(page.parent_path() / target))
          << page.filename() << " links to missing " << target;
      ++checked;
    }
  }
  EXPECT_GE(checked, 10);
}

TEST(DocsStaleness, DeterminismPageNamesTheSuppressionRules) {
  // ffcheck's FF02 message points readers at docs/determinism.md; the
  // page must keep explaining the suppression format and the single
  // sanctioned ND03 site.
  const std::string doc = read_file(repo_dir() / "docs" / "determinism.md");
  EXPECT_NE(doc.find("FFCHECK(ND03)"), std::string::npos);
  EXPECT_NE(doc.find("telemetry/clock.cpp"), std::string::npos);
  EXPECT_NE(doc.find("FF02"), std::string::npos);
}

TEST(RepoLayout, EverySrcHeaderHasANonTestIncluder) {
  // A src/ module that only its own test includes is code the system
  // never runs. Every header needs an includer among the library, the
  // tools, the benches, the examples or the end-to-end benchmark; the
  // header itself and its own .cpp do not count.
  const std::regex include_line("^\\s*#\\s*include\\s*\"([^\"]+)\"");
  std::map<std::string, std::set<fs::path>> includers;
  for (const char* root : {"src", "tools", "bench", "examples", "e2ebench"})
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(repo_dir() / root)) {
      const fs::path& file = entry.path();
      if (file.extension() != ".h" && file.extension() != ".cpp") continue;
      std::istringstream text(read_file(file));
      std::smatch match;
      for (std::string line; std::getline(text, line);)
        if (std::regex_search(line, match, include_line))
          includers[match[1].str()].insert(file);
    }

  const fs::path src = repo_dir() / "src";
  std::vector<fs::path> headers;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(src))
    if (entry.path().extension() == ".h") headers.push_back(entry.path());
  std::sort(headers.begin(), headers.end());
  ASSERT_GE(headers.size(), 50u) << "src/ tree is missing headers";

  std::vector<std::string> orphans;
  for (const fs::path& header : headers) {
    const std::string name = header.lexically_relative(src).generic_string();
    const std::set<fs::path>& users = includers[name];
    fs::path own_cpp = header;
    own_cpp.replace_extension(".cpp");
    const bool used = std::any_of(
        users.begin(), users.end(), [&](const fs::path& user) {
          return user != header && user != own_cpp;
        });
    if (!used) orphans.push_back(name);
  }
  EXPECT_TRUE(orphans.empty())
      << orphans.size() << " src/ headers have no includer outside tests/: "
      << ::testing::PrintToString(orphans);
}

}  // namespace
}  // namespace flashflow
