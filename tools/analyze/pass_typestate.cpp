// elmo_analyze — typestate pass: declarative object-protocol machines.
//
// The resource objects the governor/spill/watchdog substrate hands out are
// driven through small state machines the type system cannot express:
//
//   SpillFile         open → write* → read* → close: once for_each_block
//                     starts streaming the file back, append_block is a
//                     protocol break (rule spill-write-after-read)
//   MemoryLease       acquire → charge* → release: set()/charged() after
//                     release() on ANY path is use-after-release — a branch
//                     that releases early and then merges counts
//   Watchdog          arm() returns a Token whose destructor disarms; a
//                     discarded result disarms immediately and the span
//                     runs unsupervised (rule discarded-token)
//   checkpoint        repair-before-resume: load_checkpoint for a resume
//                     without repair_checkpoint first leaves the read
//                     stopping silently at a damaged tail
//   SparseRankTester  begin_iteration must precede the warm elementarity
//                     tests of each iteration; the next begin_iteration
//                     invalidates the cached pivots
//                     (rule warm-test-before-begin).  Every solver driver
//                     holds its engine directly, so this covers them all
//
// Checking model: per function, tracked locals (declared by type name,
// `auto x = ...Type...` bindings, containers of the type, and range-for
// aliases over tracked containers) carry a SET of possible states.
// Branches fork the set and merge at the join (NFA-style: a path that
// skips a release/begin on an error edge survives into the merged set);
// `return`/`throw`/`break` kill their path; loop bodies run twice so
// cross-iteration breaks (append after a read in the previous trip)
// surface.  One level of interprocedural propagation: passing a tracked
// object to a resolvable function applies that callee's event calls in
// order.  Lambda bodies are DEFERRED, not inline: they evaluate against
// the enclosing function's final states, matching how solver drivers
// prepare an iteration before the per-candidate lambda runs.
//
// Escapes: lint:allow(<rule>) on the offending or preceding raw line.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analyze/analyzer.hpp"
#include "analyze/callgraph.hpp"

namespace elmo_analyze {

namespace {

constexpr std::size_t npos = CallGraph::npos;

// One event of a machine: a state set it must not fire from (bad_mask),
// the state every survivor collapses to (0 = unchanged), and the rule the
// bad states trip.  `must` narrows a rule to definite violations: it fires
// only when EVERY possible state is bad — used where a deferred
// per-candidate lambda runs against the enclosing function's final states,
// which keep the zero-trip loop path's unstaged state alongside the staged
// one.
struct EventDef {
  const char* name;
  unsigned bad_mask;
  bool must;
  unsigned result_state;
  const char* rule;
  const char* complaint;
};

struct MachineDef {
  const char* type_ident;  // declaration type name that starts tracking
  const char* pretty;
  unsigned initial_mask;
  std::vector<EventDef> events;

  [[nodiscard]] const EventDef* event(const std::string& name) const {
    for (const EventDef& e : events) {
      if (name == e.name) return &e;
    }
    return nullptr;
  }
};

// State bits are machine-local; bit 1 is always the freshly-constructed
// state.
constexpr unsigned kFresh = 1;     // SpillFile: no block written yet
constexpr unsigned kWriting = 2;   // SpillFile: append_block happened
constexpr unsigned kReading = 4;   // SpillFile: for_each_block happened
constexpr unsigned kActive = 1;    // MemoryLease: holds its charge
constexpr unsigned kReleased = 2;  // MemoryLease: released
constexpr unsigned kNoIter = 1;    // SparseRankTester: no iteration staged
constexpr unsigned kIter = 2;      // SparseRankTester: begin_iteration ran

const std::vector<MachineDef>& machines() {
  static const std::vector<MachineDef> kMachines = {
      {"SpillFile",
       "SpillFile",
       kFresh,
       {
           {"append_block", kReading, false, kWriting,
            "spill-write-after-read",
            "appends a block after for_each_block started streaming the "
            "spill file back — the protocol is open, write*, read*, close; "
            "stage every block before reading"},
           {"for_each_block", 0, false, kReading, nullptr, nullptr},
       }},
      {"MemoryLease",
       "MemoryLease",
       kActive,
       {
           {"set", kReleased, false, kActive, "use-after-release",
            "charges the lease on a path where release() already ran — an "
            "early-release branch merges back into this use"},
           {"charged", kReleased, false, 0, "use-after-release",
            "reads the lease on a path where release() already ran — an "
            "early-release branch merges back into this use"},
           {"release", 0, false, kReleased, nullptr, nullptr},
       }},
      {"SparseRankTester",
       "SparseRankTester",
       kNoIter,
       {
           {"begin_iteration", 0, false, kIter, nullptr, nullptr},
           {"is_elementary", kNoIter, true, 0, "warm-test-before-begin",
            "runs a warm elementarity test on a path with no "
            "begin_iteration for the current iteration — stale cached "
            "pivots from the previous iteration would be reused"},
       }},
  };
  return kMachines;
}

std::size_t machine_for_type(const std::string& type_ident) {
  const auto& defs = machines();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (type_ident == defs[i].type_ident) return i;
  }
  return npos;
}

struct VarState {
  std::size_t machine = npos;
  unsigned mask = 0;
};

struct Env {
  std::map<std::string, VarState> vars;
  bool dead = false;
};

Env merge(const Env& a, const Env& b) {
  if (a.dead) return b;
  if (b.dead) return a;
  Env out = a;
  for (const auto& [name, st] : b.vars) {
    auto it = out.vars.find(name);
    if (it == out.vars.end()) {
      out.vars.emplace(name, st);
    } else {
      it->second.mask |= st.mask;
    }
  }
  return out;
}

struct TypestatePass {
  const Project& project;
  const Options& opts;
  std::vector<Finding>& findings;
  CallGraph cg;
  std::set<std::string> emitted;  // rule:file:line:var

  // Per-function evaluation context (rebuilt for every top-level fn).
  struct FnCtx {
    std::size_t fn = npos;
    const std::vector<Token>* toks = nullptr;
    std::vector<std::pair<std::size_t, std::size_t>> child_ranges;
    std::map<std::string, std::string> aliases;  // range-for name -> var
  };

  void run();
  void process_fn(std::size_t fn_idx, Env env);
  void discover_vars(FnCtx& ctx, Env& env);
  std::size_t skip_child(const FnCtx& ctx, std::size_t i) const;
  std::size_t eval_range(const FnCtx& ctx, std::size_t b, std::size_t e,
                         Env& env);
  std::size_t eval_if(const FnCtx& ctx, std::size_t i, std::size_t e,
                      Env& env);
  std::size_t eval_loop(const FnCtx& ctx, std::size_t i, std::size_t e,
                        Env& env);
  std::size_t statement_end(const FnCtx& ctx, std::size_t b,
                            std::size_t e) const;
  void apply_event(const FnCtx& ctx, Env& env, const std::string& var,
                   const std::string& event, std::size_t line);
  void propagate_call(const FnCtx& ctx, Env& env, const CallRef* call,
                      std::size_t open, std::size_t close);
  std::string receiver_at(const FnCtx& ctx, std::size_t dot) const;
  void check_discarded_tokens();
  void check_checkpoint_repair();
  void violation(const std::string& rule, std::size_t file, std::size_t line,
                 const std::string& message);
};

void TypestatePass::violation(const std::string& rule, std::size_t file,
                              std::size_t line, const std::string& message) {
  const SourceFile& f = project.files[file];
  if (f.allows(line, rule)) return;
  std::ostringstream key;
  key << rule << ":" << file << ":" << line;
  if (!emitted.insert(key.str()).second) return;
  Finding finding;
  finding.pass = "typestate";
  finding.rule = rule;
  finding.file = f.path;
  finding.line = line;
  finding.message = message;
  findings.push_back(std::move(finding));
}

void TypestatePass::apply_event(const FnCtx& ctx, Env& env,
                                const std::string& var,
                                const std::string& event, std::size_t line) {
  auto it = env.vars.find(var);
  if (it == env.vars.end()) return;
  VarState& st = it->second;
  if (event == "emplace") {  // (re)construction inside optional/container
    st.mask = machines()[st.machine].initial_mask;
    return;
  }
  const MachineDef& def = machines()[st.machine];
  const EventDef* ev = def.event(event);
  if (ev == nullptr) return;
  const bool bad =
      (st.mask & ev->bad_mask) != 0 &&
      (!ev->must || (st.mask & ~ev->bad_mask) == 0);
  if (bad && ev->rule != nullptr) {
    violation(ev->rule, cg.fns[ctx.fn].file, line,
              std::string("'") + var + "' (" + def.pretty + ") " +
                  ev->complaint);
    st.mask &= ~ev->bad_mask;  // recover: report each break once
    if (st.mask == 0) st.mask = def.initial_mask;
  }
  if (ev->result_state != 0) st.mask = ev->result_state;
}

/// The identifier owning the member access whose `.`/`->` sits at `dot`:
/// `spill.append_block` -> spill, `testers[i].is_elementary` -> testers,
/// `foo().bar` -> "" (chained call results are not tracked variables).
std::string TypestatePass::receiver_at(const FnCtx& ctx,
                                       std::size_t dot) const {
  const std::vector<Token>& toks = *ctx.toks;
  if (dot == 0) return "";
  std::size_t i = dot - 1;
  if (toks[i].is("]")) {
    const std::size_t open = match_backward(toks, i);
    if (open == npos || open == 0) return "";
    i = open - 1;
  }
  if (!toks[i].ident()) return "";
  std::string name = toks[i].text;
  auto alias = ctx.aliases.find(name);
  return alias == ctx.aliases.end() ? name : alias->second;
}

std::size_t TypestatePass::skip_child(const FnCtx& ctx, std::size_t i) const {
  for (const auto& [b, e] : ctx.child_ranges) {
    if (i == b) return e + 1;
  }
  return i;
}

/// First token index past the statement starting at `b`: the `;` at
/// bracket depth 0, bounded by `e`.
std::size_t TypestatePass::statement_end(const FnCtx& ctx, std::size_t b,
                                         std::size_t e) const {
  const std::vector<Token>& toks = *ctx.toks;
  int depth = 0;
  for (std::size_t i = b; i < e; ++i) {
    if (toks[i].is("(") || toks[i].is("[") || toks[i].is("{")) ++depth;
    if (toks[i].is(")") || toks[i].is("]") || toks[i].is("}")) --depth;
    if (toks[i].is(";") && depth <= 0) return i;
  }
  return e;
}

std::size_t TypestatePass::eval_if(const FnCtx& ctx, std::size_t i,
                                   std::size_t e, Env& env) {
  const std::vector<Token>& toks = *ctx.toks;
  if (i + 1 >= e || !toks[i + 1].is("(")) return i + 1;
  const std::size_t close = match_forward(toks, i + 1);
  if (close == npos || close >= e) return i + 1;
  // Condition events (lease.charged() in the test) run on every path.
  eval_range(ctx, i + 2, close, env);
  std::size_t then_b;
  std::size_t then_e;
  std::size_t after;
  if (close + 1 < e && toks[close + 1].is("{")) {
    const std::size_t body_close = match_forward(toks, close + 1);
    if (body_close == npos || body_close > e) return close + 1;
    then_b = close + 2;
    then_e = body_close;
    after = body_close + 1;
  } else {
    then_b = close + 1;
    then_e = statement_end(ctx, then_b, e);
    after = then_e + 1;
  }
  Env then_env = env;
  eval_range(ctx, then_b, then_e, then_env);
  if (after < e && toks[after].ident() && toks[after].text == "else") {
    Env else_env = env;
    std::size_t after_else;
    if (after + 1 < e && toks[after + 1].ident() &&
        toks[after + 1].text == "if") {
      after_else = eval_if(ctx, after + 1, e, else_env);
    } else if (after + 1 < e && toks[after + 1].is("{")) {
      const std::size_t body_close = match_forward(toks, after + 1);
      if (body_close == npos || body_close > e) return after + 1;
      eval_range(ctx, after + 2, body_close, else_env);
      after_else = body_close + 1;
    } else {
      const std::size_t end = statement_end(ctx, after + 1, e);
      eval_range(ctx, after + 1, end, else_env);
      after_else = end + 1;
    }
    env = merge(then_env, else_env);
    return after_else;
  }
  env = merge(then_env, env);
  return after;
}

std::size_t TypestatePass::eval_loop(const FnCtx& ctx, std::size_t i,
                                     std::size_t e, Env& env) {
  const std::vector<Token>& toks = *ctx.toks;
  if (i + 1 >= e || !toks[i + 1].is("(")) return i + 1;
  const std::size_t close = match_forward(toks, i + 1);
  if (close == npos || close >= e) return i + 1;
  eval_range(ctx, i + 2, close, env);
  std::size_t body_b;
  std::size_t body_e;
  std::size_t after;
  if (close + 1 < e && toks[close + 1].is("{")) {
    const std::size_t body_close = match_forward(toks, close + 1);
    if (body_close == npos || body_close > e) return close + 1;
    body_b = close + 2;
    body_e = body_close;
    after = body_close + 1;
  } else {
    body_b = close + 1;
    body_e = statement_end(ctx, body_b, e);
    after = body_e + 1;
  }
  // Two trips: the second starts from entry ∪ one-trip so breaks that only
  // manifest across iterations (append after last trip's read) surface.
  Env once = env;
  eval_range(ctx, body_b, body_e, once);
  Env merged = merge(env, once);
  Env twice = merged;
  eval_range(ctx, body_b, body_e, twice);
  env = merge(merged, twice);
  env.dead = false;  // a break/return inside the body: zero-trip path lives
  return after;
}

std::size_t TypestatePass::eval_range(const FnCtx& ctx, std::size_t b,
                                      std::size_t e, Env& env) {
  const std::vector<Token>& toks = *ctx.toks;
  std::size_t i = b;
  while (i < e && !env.dead) {
    const std::size_t skipped = skip_child(ctx, i);
    if (skipped != i) {
      i = skipped;
      continue;
    }
    const Token& t = toks[i];
    if (t.ident()) {
      if (t.text == "if") {
        i = eval_if(ctx, i, e, env);
        continue;
      }
      if (t.text == "for" || t.text == "while") {
        i = eval_loop(ctx, i, e, env);
        continue;
      }
      if (t.text == "catch") {
        // A catch block is a fork off the try body, not part of the
        // fall-through path: a rethrow inside it must not kill the
        // normal-exit walk.  (The try body itself is walked linearly —
        // conservatively, as if it completed.)
        std::size_t j = i + 1;
        if (j < e && toks[j].is("(")) {
          const std::size_t close = match_forward(toks, j);
          if (close != npos && close + 1 < e && toks[close + 1].is("{")) {
            const std::size_t body_close = match_forward(toks, close + 1);
            if (body_close != npos && body_close <= e) {
              Env handler = env;
              eval_range(ctx, close + 2, body_close, handler);
              env = merge(env, handler);
              i = body_close + 1;
              continue;
            }
          }
        }
      }
      if (t.text == "return" || t.text == "throw" || t.text == "break" ||
          t.text == "continue") {
        // Apply events inside the return expression first, then die.
        const std::size_t end = statement_end(ctx, i + 1, e);
        Env tail = env;
        tail.dead = false;
        eval_range(ctx, i + 1, end, tail);
        env = tail;
        env.dead = true;
        break;
      }
      const bool member_call = i > 0 &&
                               (toks[i - 1].is(".") || toks[i - 1].is("->")) &&
                               i + 1 < e && toks[i + 1].is("(");
      if (member_call) {
        const std::string recv = receiver_at(ctx, i - 1);
        if (!recv.empty()) apply_event(ctx, env, recv, t.text, t.line);
        ++i;
        continue;
      }
      // One-level propagation: helper(tracked_var, ...) applies the
      // callee's event calls, in callee token order, to the passed var.
      const bool free_call = i + 1 < e && toks[i + 1].is("(") &&
                             (i == 0 || (!toks[i - 1].is(".") &&
                                         !toks[i - 1].is("->")));
      if (free_call) {
        const std::size_t close = match_forward(toks, i + 1);
        if (close != npos && close <= e) {
          propagate_call(ctx, env, nullptr, i, close);
        }
      }
    }
    ++i;
  }
  return e;
}

void TypestatePass::propagate_call(const FnCtx& ctx, Env& env,
                                   const CallRef* /*call*/, std::size_t open,
                                   std::size_t close) {
  const std::vector<Token>& toks = *ctx.toks;
  const std::string& callee = toks[open].text;
  // Gather tracked variables appearing at the call's top argument level.
  std::vector<std::string> passed;
  int depth = 0;
  for (std::size_t i = open + 2; i < close; ++i) {
    if (toks[i].is("(") || toks[i].is("[") || toks[i].is("{")) ++depth;
    if (toks[i].is(")") || toks[i].is("]") || toks[i].is("}")) --depth;
    if (depth == 0 && toks[i].ident() && env.vars.count(toks[i].text) != 0) {
      passed.push_back(toks[i].text);
    }
  }
  if (passed.empty()) return;
  const std::vector<std::size_t> targets = cg.resolve(callee);
  if (targets.size() != 1) return;  // ambiguous: stay silent
  const FnDef& target = cg.fns[targets[0]];
  if (target.is_lambda || target.body_end <= target.body_begin) return;
  const std::vector<Token>& callee_toks = cg.file_tokens[target.file];
  for (std::size_t i = target.body_begin + 1; i < target.body_end; ++i) {
    if (!callee_toks[i].ident()) continue;
    if (i == 0 ||
        (!callee_toks[i - 1].is(".") && !callee_toks[i - 1].is("->"))) {
      continue;
    }
    if (i + 1 >= target.body_end || !callee_toks[i + 1].is("(")) continue;
    // The event is attributed to the caller's line: that is where the
    // object was handed off on the offending path.
    for (const std::string& var : passed) {
      apply_event(ctx, env, var, callee_toks[i].text, toks[open].line);
    }
  }
}

void TypestatePass::discover_vars(FnCtx& ctx, Env& env) {
  const FnDef& f = cg.fns[ctx.fn];
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = f.body_begin + 1; i < f.body_end; ++i) {
    const std::size_t skipped = skip_child(ctx, i);
    if (skipped != i) {
      i = skipped - 1;
      continue;
    }
    const Token& t = toks[i];
    if (!t.ident()) continue;
    const std::size_t machine = machine_for_type(t.text);
    if (machine == npos) continue;
    if (i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"))) continue;
    // Skip template arguments / reference markers after the type name.
    std::size_t j = i + 1;
    if (j < f.body_end && toks[j].is("<")) {
      int angle = 1;
      ++j;
      while (j < f.body_end && angle > 0) {
        if (toks[j].is("<")) ++angle;
        if (toks[j].is(">")) --angle;
        if (toks[j].is(">>")) angle -= 2;
        ++j;
      }
    }
    while (j < f.body_end &&
           (toks[j].is("&") || toks[j].is("*") || toks[j].is(">"))) {
      ++j;
    }
    std::string var;
    if (j + 1 < f.body_end && toks[j].ident() &&
        (toks[j + 1].is("(") || toks[j + 1].is("{") || toks[j + 1].is(";") ||
         toks[j + 1].is("=") || toks[j + 1].is(","))) {
      var = toks[j].text;
    } else {
      // `auto x = make_...<Type>(...)` binding: the statement head names
      // the variable.
      std::size_t s = i;
      while (s > f.body_begin + 1 && !toks[s - 1].is(";") &&
             !toks[s - 1].is("{") && !toks[s - 1].is("}")) {
        --s;
      }
      if (s + 2 < f.body_end && toks[s].ident() && toks[s].text == "auto" &&
          toks[s + 1].ident() && toks[s + 2].is("=")) {
        var = toks[s + 1].text;
      }
    }
    if (var.empty()) continue;
    VarState st;
    st.machine = machine;
    st.mask = machines()[machine].initial_mask;
    env.vars.emplace(var, st);
  }
  // Range-for aliases over tracked containers:
  // `for (auto& oracle : oracles)` drives the container's machine.
  for (std::size_t i = f.body_begin + 1; i + 1 < f.body_end; ++i) {
    if (!toks[i].ident() || toks[i].text != "for" || !toks[i + 1].is("(")) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1);
    if (close == npos || close >= f.body_end) continue;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (!toks[k].is(":")) continue;
      if (k + 2 != close || !toks[k + 1].ident()) break;  // complex range
      if (k == i + 2 || !toks[k - 1].ident()) break;
      if (env.vars.count(toks[k + 1].text) != 0) {
        ctx.aliases.emplace(toks[k - 1].text, toks[k + 1].text);
      }
      break;
    }
  }
}

void TypestatePass::process_fn(std::size_t fn_idx, Env env) {
  const FnDef& f = cg.fns[fn_idx];
  if (f.body_end <= f.body_begin) return;
  FnCtx ctx;
  ctx.fn = fn_idx;
  ctx.toks = &cg.file_tokens[f.file];
  for (std::size_t i = 0; i < cg.fns.size(); ++i) {
    const FnDef& child = cg.fns[i];
    if (child.parent == fn_idx && child.is_lambda &&
        child.body_end > child.body_begin) {
      ctx.child_ranges.emplace_back(child.body_begin, child.body_end);
    }
  }
  std::sort(ctx.child_ranges.begin(), ctx.child_ranges.end());
  discover_vars(ctx, env);
  env.dead = false;
  eval_range(ctx, f.body_begin + 1, f.body_end, env);
  // Deferred lambda bodies: evaluate each against this function's final
  // states (the drivers stage an iteration, then the candidate lambda
  // runs), inheriting the tracked variables it captures.
  for (std::size_t i = 0; i < cg.fns.size(); ++i) {
    const FnDef& child = cg.fns[i];
    if (child.parent == fn_idx && child.is_lambda) {
      Env child_env = env;
      child_env.dead = false;
      process_fn(i, child_env);
    }
  }
}

void TypestatePass::run() {
  for (std::size_t i = 0; i < cg.fns.size(); ++i) {
    if (!cg.fns[i].is_lambda) process_fn(i, Env{});
  }
  check_discarded_tokens();
  check_checkpoint_repair();
}

void TypestatePass::check_discarded_tokens() {
  for (const CallRef& call : cg.calls) {
    if (!call.member || call.callee != "arm" || call.caller == npos) continue;
    const std::vector<Token>& toks = cg.file_tokens[call.file];
    // Walk the receiver chain back to the expression's first token,
    // collecting the identifiers: only Watchdog arms are typestated.
    bool watchdoggy = false;
    std::size_t cur = call.tok;
    for (int steps = 0; steps < 24 && cur >= 2; ++steps) {
      if (!toks[cur - 1].is(".") && !toks[cur - 1].is("->") &&
          !toks[cur - 1].is("::")) {
        break;
      }
      std::size_t prev = cur - 2;
      if (toks[prev].is(")")) {
        const std::size_t open = match_backward(toks, prev);
        if (open == npos || open == 0) break;
        prev = open - 1;
      }
      if (!toks[prev].ident()) break;
      std::string lowered = toks[prev].text;
      for (char& c : lowered) c = static_cast<char>(std::tolower(
          static_cast<unsigned char>(c)));
      if (lowered.find("watchdog") != std::string::npos) watchdoggy = true;
      cur = prev;
    }
    if (!watchdoggy) continue;
    const bool discarded =
        cur == 0 || toks[cur - 1].is(";") || toks[cur - 1].is("{") ||
        toks[cur - 1].is("}");
    if (!discarded) continue;
    violation("discarded-token", call.file, call.line,
              "Watchdog::arm result discarded — the returned Token disarms "
              "in its own destructor before the supervised work starts; "
              "bind it for the span being watched");
  }
}

void TypestatePass::check_checkpoint_repair() {
  for (const CallRef& call : cg.calls) {
    if (call.callee != "load_checkpoint" || call.caller == npos) continue;
    bool repaired = false;
    for (const CallRef& other : cg.calls) {
      if (other.caller != call.caller || other.tok >= call.tok ||
          other.file != call.file) {
        continue;
      }
      if (other.callee == "repair_checkpoint") {
        repaired = true;
        break;
      }
      // One level deep: a helper called earlier that repairs counts.
      for (std::size_t idx : cg.resolve(other.callee)) {
        for (const CallRef& inner : cg.calls) {
          if (inner.caller == idx && inner.callee == "repair_checkpoint") {
            repaired = true;
            break;
          }
        }
        if (repaired) break;
      }
      if (repaired) break;
    }
    if (repaired) continue;
    violation("repair-before-resume", call.file, call.line,
              "checkpoint loaded for resume without repair_checkpoint on "
              "the path first — a damaged tail makes the load stop "
              "silently early; trim the file back to its last intact "
              "frame before reading it");
  }
}

}  // namespace

void pass_typestate(const Project& project, const Options& opts,
                    std::vector<Finding>& findings) {
  TypestatePass pass{project, opts, findings, build_callgraph(project), {}};
  pass.run();
}

}  // namespace elmo_analyze
