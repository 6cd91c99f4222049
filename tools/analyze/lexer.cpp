#include "lexer.hpp"

#include <cctype>
#include <cstddef>
#include <string>

namespace mmx::analyze {
namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Encoding prefixes that may precede a string/char literal. `raw` is set
// when the prefix ends in R (raw string syntax follows).
bool literal_prefix(std::string_view id, bool& raw) {
  raw = !id.empty() && id.back() == 'R';
  const std::string_view enc = raw ? id.substr(0, id.size() - 1) : id;
  return enc.empty() || enc == "u8" || enc == "u" || enc == "U" || enc == "L";
}

// Multi-character punctuators, longest first (maximal munch).
constexpr const char* kPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=", "==", "!=",
    "&&",  "||",  "+=",  "-=",  "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", ".*",
};

class Lexer {
 public:
  Lexer(std::string_view src, LexedFile& out, std::vector<Token>& sink, std::size_t base_line,
        bool in_pp)
      : src_(src), out_(out), sink_(sink), line_(base_line), in_pp_(in_pp) {}

  void run() {
    while (i_ < src_.size()) {
      const char c = src_[i_];
      if (c == '\n') {
        newline();
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
        advance();
        continue;
      }
      if (c == '#' && !in_pp_ && at_line_start_) {
        preprocessor_line();
        continue;
      }
      at_line_start_ = false;
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (ident_start(c)) {
        identifier_or_literal();
        continue;
      }
      if (digit(c) || (c == '.' && digit(peek(1)))) {
        number();
        continue;
      }
      if (c == '"') {
        string_literal(/*raw=*/false, i_);
        continue;
      }
      if (c == '\'') {
        char_literal(i_);
        continue;
      }
      punct();
    }
  }

 private:
  char peek(std::size_t ahead = 0) const {
    return i_ + ahead < src_.size() ? src_[i_ + ahead] : '\0';
  }
  void advance() {
    ++i_;
    ++col_;
  }
  void newline() {
    ++i_;
    ++line_;
    col_ = 1;
    at_line_start_ = true;
    out_.line_count = line_ > out_.line_count ? line_ : out_.line_count;
  }

  void push(TokKind kind, std::size_t begin, std::size_t line, std::size_t col) {
    sink_.push_back({kind, std::string(src_.substr(begin, i_ - begin)), line, col});
  }

  // -- comments -------------------------------------------------------------

  void line_comment() {
    const std::size_t line = line_;
    const std::size_t begin = i_;
    while (i_ < src_.size() && src_[i_] != '\n') advance();
    parse_suppression(src_.substr(begin, i_ - begin), line);
  }

  void block_comment() {
    const std::size_t line = line_;
    const std::size_t begin = i_;
    advance();  // '/'
    advance();  // '*'
    while (i_ < src_.size()) {
      if (src_[i_] == '*' && peek(1) == '/') {
        advance();
        advance();
        break;
      }
      if (src_[i_] == '\n')
        newline();
      else
        advance();
    }
    at_line_start_ = false;
    parse_suppression(src_.substr(begin, i_ - begin), line);
  }

  // `mmx-analyze: allow(rule[,rule]) -- reason`.
  void parse_suppression(std::string_view comment, std::size_t line) {
    const std::size_t p = comment.find("mmx-analyze:");
    if (p == std::string_view::npos) return;
    const std::size_t open = comment.find("allow(", p);
    if (open == std::string_view::npos) return;
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) return;
    std::string_view rules = comment.substr(open + 6, close - open - 6);
    const std::size_t dashes = comment.find("--", close);
    bool reasoned = false;
    if (dashes != std::string_view::npos) {
      for (std::size_t k = dashes + 2; k < comment.size(); ++k) {
        if (!std::isspace(static_cast<unsigned char>(comment[k]))) {
          reasoned = true;
          break;
        }
      }
    }
    while (!rules.empty()) {
      const std::size_t comma = rules.find(',');
      std::string_view one = rules.substr(0, comma);
      while (!one.empty() && std::isspace(static_cast<unsigned char>(one.front())))
        one.remove_prefix(1);
      while (!one.empty() && std::isspace(static_cast<unsigned char>(one.back())))
        one.remove_suffix(1);
      if (!one.empty()) out_.suppressions.push_back({std::string(one), line, reasoned});
      if (comma == std::string_view::npos) break;
      rules.remove_prefix(comma + 1);
    }
  }

  // -- literals -------------------------------------------------------------

  void identifier_or_literal() {
    const std::size_t begin = i_;
    const std::size_t line = line_, col = col_;
    while (i_ < src_.size() && ident_char(src_[i_])) advance();
    const std::string_view id = src_.substr(begin, i_ - begin);
    bool raw = false;
    if (peek() == '"' && literal_prefix(id, raw)) {
      string_literal(raw, begin);
      sink_.back().line = line;
      sink_.back().col = col;
      return;
    }
    if (peek() == '\'' && !raw && literal_prefix(id, raw) && !id.empty()) {
      char_literal(begin);
      sink_.back().line = line;
      sink_.back().col = col;
      return;
    }
    push(TokKind::kIdentifier, begin, line, col);
  }

  void string_literal(bool raw, std::size_t begin) {
    const std::size_t line = line_, col = col_;
    advance();  // opening '"'
    if (raw) {
      // R"delim( ... )delim"  — no escapes, newlines allowed.
      std::string delim;
      while (i_ < src_.size() && src_[i_] != '(') {
        delim += src_[i_];
        advance();
      }
      if (i_ < src_.size()) advance();  // '('
      const std::string closer = ")" + delim + "\"";
      while (i_ < src_.size() && src_.compare(i_, closer.size(), closer) != 0) {
        if (src_[i_] == '\n')
          newline();
        else
          advance();
      }
      for (std::size_t k = 0; k < closer.size() && i_ < src_.size(); ++k) advance();
      at_line_start_ = false;
    } else {
      while (i_ < src_.size() && src_[i_] != '"' && src_[i_] != '\n') {
        if (src_[i_] == '\\' && i_ + 1 < src_.size()) advance();
        advance();
      }
      if (i_ < src_.size() && src_[i_] == '"') advance();
    }
    push(TokKind::kString, begin, line, col);
  }

  void char_literal(std::size_t begin) {
    const std::size_t line = line_, col = col_;
    advance();  // opening '\''
    while (i_ < src_.size() && src_[i_] != '\'' && src_[i_] != '\n') {
      if (src_[i_] == '\\' && i_ + 1 < src_.size()) advance();
      advance();
    }
    if (i_ < src_.size() && src_[i_] == '\'') advance();
    push(TokKind::kChar, begin, line, col);
  }

  void number() {
    const std::size_t begin = i_;
    const std::size_t line = line_, col = col_;
    // pp-number: digits, identifier chars, digit separators, '.', and a
    // sign directly after an exponent marker. Swallows 1'000'000, 0x1Fp3,
    // 1e-9, 3.14f in one token — the regex scanner's '-as-char-literal
    // confusion cannot happen here.
    while (i_ < src_.size()) {
      const char c = src_[i_];
      if (ident_char(c) || c == '.' || (c == '\'' && ident_char(peek(1)))) {
        const bool exp = (c == 'e' || c == 'E' || c == 'p' || c == 'P');
        advance();
        if (exp && (peek() == '+' || peek() == '-')) advance();
        continue;
      }
      break;
    }
    push(TokKind::kNumber, begin, line, col);
  }

  void punct() {
    const std::size_t begin = i_;
    const std::size_t line = line_, col = col_;
    for (const char* p : kPuncts) {
      const std::size_t n = std::char_traits<char>::length(p);
      if (src_.compare(i_, n, p) == 0) {
        for (std::size_t k = 0; k < n; ++k) advance();
        push(TokKind::kPunct, begin, line, col);
        return;
      }
    }
    advance();
    push(TokKind::kPunct, begin, line, col);
  }

  // -- preprocessor ---------------------------------------------------------

  void preprocessor_line() {
    const std::size_t line = line_;
    // Collect the logical line: backslash-newline continuations joined.
    std::string text;
    while (i_ < src_.size()) {
      const char c = src_[i_];
      if (c == '\\' && (peek(1) == '\n' || (peek(1) == '\r' && peek(2) == '\n'))) {
        advance();
        while (i_ < src_.size() && src_[i_] != '\n') advance();
        newline();
        text += ' ';
        continue;
      }
      if (c == '\n') break;
      text += c;
      advance();
    }
    // Directive name.
    std::size_t p = 1;  // skip '#'
    while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
    std::size_t q = p;
    while (q < text.size() && ident_char(text[q])) ++q;
    const std::string_view directive = std::string_view(text).substr(p, q - p);
    if (directive == "include") {
      std::size_t r = q;
      while (r < text.size() && (text[r] == ' ' || text[r] == '\t')) ++r;
      if (r < text.size() && (text[r] == '"' || text[r] == '<')) {
        const char close = text[r] == '<' ? '>' : '"';
        const std::size_t end = text.find(close, r + 1);
        if (end != std::string::npos)
          out_.includes.push_back(
              {text.substr(r + 1, end - r - 1), /*angled=*/text[r] == '<', line});
      }
      return;  // include targets are not code tokens
    }
    // Tokenize the directive body (macro bodies still see token rules).
    Lexer sub(std::string_view(text).substr(q), out_, out_.pp_tokens, line, /*in_pp=*/true);
    sub.run();
  }

  std::string_view src_;
  LexedFile& out_;
  std::vector<Token>& sink_;
  std::size_t i_ = 0;
  std::size_t line_;
  std::size_t col_ = 1;
  bool at_line_start_ = true;
  bool in_pp_;
};

}  // namespace

LexedFile lex(std::string_view src, std::string rel) {
  LexedFile out;
  out.rel = std::move(rel);
  out.line_count = 1;
  Lexer lx(src, out, out.tokens, /*base_line=*/1, /*in_pp=*/false);
  lx.run();
  return out;
}

}  // namespace mmx::analyze
