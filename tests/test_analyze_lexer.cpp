// Unit tests for the analyzer's stripper/lexer core, linked directly
// against tools/analyze/{source,lexer}.cpp (the rest of the test surface
// drives the elmo_analyze binary end-to-end; these pin byte-level literal
// handling that end-to-end goldens would only show as mystery findings).
//
// The load-bearing case is raw string literals: a body containing
// `send(` / `recv` / unbalanced parentheses must never leak tokens into
// the protocol/typestate passes, whether the text was stripped first or
// handed to lex() raw.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/lexer.hpp"
#include "analyze/source.hpp"

namespace {

using elmo_analyze::lex;
using elmo_analyze::strip_noncode;
using elmo_analyze::Token;

std::vector<std::string> texts(const std::vector<Token>& toks) {
  std::vector<std::string> out;
  out.reserve(toks.size());
  for (const Token& t : toks) out.push_back(t.text);
  return out;
}

bool has_token(const std::vector<Token>& toks, const std::string& text) {
  return std::any_of(toks.begin(), toks.end(),
                     [&](const Token& t) { return t.text == text; });
}

TEST(AnalyzeLexer, RawStringBodyDoesNotLeakThroughStripper) {
  // The body spells a send call, a recv, unbalanced parens and a quote —
  // none of it is code.
  const std::string src =
      "auto s = R\"(send(1, 2) recv barrier \" ))\";\n"
      "int after = 0;\n";
  const auto toks = lex(strip_noncode(src));
  EXPECT_FALSE(has_token(toks, "send"));
  EXPECT_FALSE(has_token(toks, "recv"));
  EXPECT_FALSE(has_token(toks, "barrier"));
  const std::vector<std::string> expect = {"auto", "s",     "=", ";",
                                           "int",  "after", "=", "0", ";"};
  EXPECT_EQ(texts(toks), expect);
  // Line attribution survives: `after` sits on line 2.
  ASSERT_GE(toks.size(), 6u);
  EXPECT_EQ(toks[5].line, 2u);
}

TEST(AnalyzeLexer, RawStringBodyDoesNotLeakFromUnstrippedText) {
  // lex() must be safe on raw (unstripped) text too: the phantom `send(`
  // inside the literal may not become tokens.
  const std::string src = "call(R\"(send(7, x))\", other);";
  const auto toks = lex(src);
  EXPECT_FALSE(has_token(toks, "send"));
  const std::vector<std::string> expect = {"call", "(", ",", "other",
                                           ")",    ";"};
  EXPECT_EQ(texts(toks), expect);
}

TEST(AnalyzeLexer, DelimitedRawStringTerminatesOnItsOwnDelimiter) {
  const std::string src =
      "auto s = R\"xy(send() )\" still_literal)xy\"; f();";
  const auto toks = lex(strip_noncode(src));
  EXPECT_FALSE(has_token(toks, "send"));
  EXPECT_FALSE(has_token(toks, "still_literal"));
  EXPECT_TRUE(has_token(toks, "f"));
}

TEST(AnalyzeLexer, MultiLineRawStringKeepsLineNumbers) {
  const std::string src =
      "auto s = R\"(line one send(\n"
      "line two)\n"
      ")\";\n"
      "int tail = 1;\n";
  const auto toks = lex(strip_noncode(src));
  EXPECT_FALSE(has_token(toks, "send"));
  ASSERT_TRUE(has_token(toks, "tail"));
  for (const Token& t : toks) {
    if (t.text == "tail") {
      EXPECT_EQ(t.line, 4u);
    }
  }
}

TEST(AnalyzeLexer, InvalidRawOpenerDoesNotSwallowFollowingCode) {
  // `R"..."` with no '(' inside the 16-char d-char bound is not a raw
  // string.  The old unbounded '(' search crossed the closing quote and
  // newlines, built a garbage terminator, and erased the next lines of
  // real code.
  const std::string src =
      "auto a = R\"no_paren_here\";\n"
      "int send_x = 1;\n"
      "f(send_x);\n"
      "int z = (1);\n";
  const auto toks = lex(strip_noncode(src));
  EXPECT_TRUE(has_token(toks, "send_x"));
  EXPECT_TRUE(has_token(toks, "f"));
  EXPECT_TRUE(has_token(toks, "z"));
}

TEST(AnalyzeLexer, PlainStringAndCharDoNotLeakFromUnstrippedText) {
  const std::string src = "g(\"send(1)\", 'x', 1'000'000);";
  const auto toks = lex(src);
  EXPECT_FALSE(has_token(toks, "send"));
  EXPECT_FALSE(has_token(toks, "x"));
  // Digit separators keep working: `1'000'000` stays numeric tokens.
  EXPECT_TRUE(has_token(toks, "1"));
  EXPECT_TRUE(has_token(toks, "000"));
}

TEST(AnalyzeLexer, AdjacentRawStringsEachTerminate) {
  const std::string src = "h(R\"(send()\", R\"(recv()\"); tail();";
  const auto toks = lex(strip_noncode(src));
  EXPECT_FALSE(has_token(toks, "send"));
  EXPECT_FALSE(has_token(toks, "recv"));
  EXPECT_TRUE(has_token(toks, "tail"));
}

}  // namespace
