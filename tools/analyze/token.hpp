// Token model for the mmx_analyze lexer.
//
// The analyzer's rules operate on a real token stream — comments, string
// and character literals (including raw strings and digit separators),
// and preprocessor lines are classified during lexing — so a rule can
// never fire on prose in a doc comment or an example inside a string
// literal, the two false-positive classes the regex-era `mmx_lint`
// could not exclude.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mmx::analyze {

enum class TokKind {
  kIdentifier,  // identifiers and keywords (rules match on text)
  kNumber,      // integer / floating literal, digit separators consumed
  kString,      // ordinary or raw string literal (text = full lexeme)
  kChar,        // character literal
  kPunct,       // operator / punctuator (maximal munch for :: -> etc.)
};

struct Token {
  TokKind kind;
  std::string text;
  std::size_t line = 0;  // 1-based
  std::size_t col = 0;   // 1-based

  bool is_id(const char* s) const { return kind == TokKind::kIdentifier && text == s; }
  bool is_punct(const char* s) const { return kind == TokKind::kPunct && text == s; }
};

/// One `#include` directive, as the include-graph builder consumes it.
struct IncludeDirective {
  std::string path;    // between the delimiters, e.g. "mmx/dsp/fft.hpp"
  bool angled = false;  // <...> vs "..."
  std::size_t line = 0;
};

/// A rule suppression parsed from a comment:
///   // mmx-analyze: allow(<rule>) -- <reason>
/// `reasoned` is false when the `-- <reason>` tail is missing; the
/// analyzer reports that as a violation of its own.
struct Suppression {
  std::string rule;
  std::size_t line = 0;
  bool reasoned = false;
};

/// A fully lexed translation unit.
struct LexedFile {
  std::string rel;                         // repo-relative path, '/' separators
  std::vector<Token> tokens;               // code tokens, preprocessor excluded
  std::vector<Token> pp_tokens;            // tokens from preprocessor bodies (macro
                                           // definitions still see token rules)
  std::vector<IncludeDirective> includes;  // #include targets in order
  std::vector<Suppression> suppressions;   // allow() comments by line
  std::size_t line_count = 0;
};

}  // namespace mmx::analyze
