// Token stream shared by the LEF and DEF parsers.
//
// LEF/DEF are whitespace/semicolon-delimited keyword languages with
// '#' end-of-line comments and quoted strings.  The tokenizer is a
// streaming cursor over the caller's text: it scans one token ahead
// on demand and never stores the token list, so parsing a file costs
// the file plus one token.  It exposes peek/next/expect plus typed
// readers (numbers in microns or DBU).  Parse errors throw ParseError
// with the 1-based line number of the offending token.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace crp::lefdef {

struct ParseError : std::runtime_error {
  ParseError(const std::string& message, int line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line(line) {}
  int line;
};

struct Token {
  std::string text;
  int line = 0;
};

class Tokenizer {
 public:
  /// Views `input`, which must outlive the tokenizer.  '#' comments
  /// are stripped; '(' ')' ';' are standalone tokens; quoted strings
  /// become single tokens without the quotes.
  explicit Tokenizer(std::string_view input);

  bool atEnd() const { return !hasNext_; }
  /// The next token, or an "<eof>" token (line -1) at the end.  The
  /// reference is invalidated by the next consuming call.
  const Token& peek() const;
  Token next();

  /// Consumes a token and checks it equals `expected`.
  void expect(std::string_view expected);

  /// Consumes tokens until (and including) the next ';'.
  void skipStatement();

  /// True and consumes when the next token equals `text`.
  bool accept(std::string_view text);

  /// Reads a token as double (LEF micron values).
  double nextDouble();
  /// Reads a token as int64 (DEF DBU values).
  long long nextInt();

  /// Line of the next token; at the end, the line of the last token
  /// (0 for an input without tokens).
  int currentLine() const { return hasNext_ ? next_.line : lastLine_; }

 private:
  /// Scans the token after the consumed one into next_.
  void advance();

  std::string_view input_;
  std::size_t pos_ = 0;  ///< scan position in input_
  int line_ = 1;         ///< line at pos_
  Token next_;           ///< one token of lookahead
  bool hasNext_ = false;
  int lastLine_ = 0;  ///< line of the last consumed token
};

}  // namespace crp::lefdef
