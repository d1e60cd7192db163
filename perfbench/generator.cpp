#include "generator.hpp"

#include <algorithm>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>

#include "models/yeast.hpp"

namespace perfbench {

namespace {

template <typename T>
void shuffle(std::vector<T>& items, std::mt19937_64& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng() % i]);
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> split_terms(const std::string& side) {
  std::vector<std::string> terms;
  std::size_t start = 0;
  while (start <= side.size()) {
    const auto plus = side.find(" + ", start);
    const auto end = plus == std::string::npos ? side.size() : plus;
    const auto term = trim(side.substr(start, end - start));
    if (!term.empty()) terms.push_back(term);
    if (plus == std::string::npos) break;
    start = plus + 3;
  }
  return terms;
}

std::string join_terms(const std::vector<std::string>& terms) {
  std::string out;
  for (const auto& term : terms) {
    if (!out.empty()) out += " + ";
    out += term;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& solve_knockouts() {
  static const std::vector<std::string> names = {"R15", "R33", "R41"};
  return names;
}

const std::vector<std::string>& query_knockouts() {
  static const std::vector<std::string> names = {"R15", "R33", "R41", "R46",
                                                 "R92r", "R98", "R100"};
  return names;
}

std::string network_text(const std::vector<std::string>& knockouts,
                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::istringstream in(elmo::models::yeast_network_1_text());
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    const auto colon = line.find(':');
    if (line.empty() || colon == std::string::npos) {
      if (!line.empty()) out << line << '\n';  // directives
      continue;
    }
    const auto name = trim(line.substr(0, colon));
    if (std::find(knockouts.begin(), knockouts.end(), name) != knockouts.end())
      continue;
    const auto body = line.substr(colon + 1);
    const bool reversible = body.find("<=>") != std::string::npos;
    const std::string arrow = reversible ? "<=>" : "=>";
    const auto at = body.find(arrow);
    if (at == std::string::npos)
      throw std::runtime_error("generator: no arrow in reaction " + name);
    auto lhs = split_terms(body.substr(0, at));
    auto rhs = split_terms(body.substr(at + arrow.size()));
    shuffle(lhs, rng);
    shuffle(rhs, rng);
    out << name << " : " << join_terms(lhs) << ' ' << arrow << ' '
        << join_terms(rhs) << '\n';
  }
  return out.str();
}

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSurviving:
      return "surviving";
    case QueryKind::kCutSets:
      return "cut_sets";
    case QueryKind::kYield:
      return "yield";
    case QueryKind::kScreen:
      return "screen";
    case QueryKind::kDecompose:
      return "decompose";
  }
  return "unknown";
}

const std::vector<std::string>& query_targets() {
  // Biomass and the fermentation-product exports.
  static const std::vector<std::string> names = {"R70", "R66", "R63",
                                                 "R60", "R67", "R64"};
  return names;
}

const char* yield_substrate() { return "R62"; }

std::vector<Query> query_stream(const std::vector<std::string>& reaction_names,
                                std::size_t num_modes, std::size_t count,
                                std::uint64_t seed) {
  if (reaction_names.size() < 2 ||
      num_modes <= *std::max_element(std::begin(kDecomposeModes),
                                     std::end(kDecomposeModes)))
    throw std::runtime_error("generator: query instance too small");
  Query decompose;
  decompose.kind = QueryKind::kDecompose;
  decompose.mode_indices.assign(std::begin(kDecomposeModes), std::end(kDecomposeModes));
  decompose.weights.assign(std::begin(kDecomposeWeights), std::end(kDecomposeWeights));

  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto& targets = query_targets();
  // Targets are dealt round-robin from a seeded offset, so each is used
  // equally often whatever the run length.
  std::size_t turn[kNumQueryKinds];
  for (auto& t : turn) t = rng() % targets.size();
  auto next_target = [&](QueryKind kind) {
    return targets[turn[static_cast<int>(kind)]++ % targets.size()];
  };
  std::vector<Query> stream;
  stream.reserve(count + 100);
  while (stream.size() < count) {
    std::vector<QueryKind> block;
    for (int k = 0; k < kNumQueryKinds; ++k)
      block.insert(block.end(), static_cast<std::size_t>(kQueryMix[k]),
                   static_cast<QueryKind>(k));
    shuffle(block, rng);
    for (QueryKind kind : block) {
      Query q;
      q.kind = kind;
      switch (kind) {
        case QueryKind::kSurviving: {
          const auto a = rng() % reaction_names.size();
          auto b = rng() % (reaction_names.size() - 1);
          if (b >= a) ++b;
          q.reactions = {reaction_names[a], reaction_names[b]};
          break;
        }
        case QueryKind::kCutSets:
        case QueryKind::kScreen:
          q.reactions = {next_target(kind)};
          break;
        case QueryKind::kYield:
          q.reactions = {yield_substrate(), next_target(kind)};
          break;
        case QueryKind::kDecompose:
          q = decompose;
          break;
      }
      stream.push_back(std::move(q));
    }
  }
  stream.resize(count);
  return stream;
}

}  // namespace perfbench
