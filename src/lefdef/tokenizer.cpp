#include "lefdef/tokenizer.hpp"

#include <cctype>
#include <cstdlib>

namespace crp::lefdef {

namespace {

bool isDelimiter(char c) {
  return std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
         c == ')' || c == ';' || c == '#';
}

}  // namespace

Tokenizer::Tokenizer(std::string_view input) : input_(input) { advance(); }

void Tokenizer::advance() {
  const std::size_t n = input_.size();
  while (pos_ < n) {  // skip blanks and comments
    const char c = input_[pos_];
    if (c == '#') {  // comment to end of line
      while (pos_ < n && input_[pos_] != '\n') ++pos_;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      line_ += c == '\n';
      ++pos_;
    } else {
      break;
    }
  }
  hasNext_ = pos_ < n;
  if (!hasNext_) return;
  next_.line = line_;
  const char c = input_[pos_];
  if (c == '(' || c == ')' || c == ';') {
    next_.text.assign(1, c);
    ++pos_;
  } else if (c == '"') {
    const std::size_t begin = ++pos_;
    while (pos_ < n && input_[pos_] != '"') ++pos_;
    next_.text.assign(input_.substr(begin, pos_ - begin));
    if (pos_ < n) ++pos_;  // closing quote
  } else {
    const std::size_t begin = pos_;
    while (pos_ < n && !isDelimiter(input_[pos_])) ++pos_;
    next_.text.assign(input_.substr(begin, pos_ - begin));
  }
}

const Token& Tokenizer::peek() const {
  static const Token kEof{"<eof>", -1};
  return hasNext_ ? next_ : kEof;
}

Token Tokenizer::next() {
  if (atEnd()) throw ParseError("unexpected end of input", currentLine());
  Token token = next_;
  lastLine_ = token.line;
  advance();
  return token;
}

void Tokenizer::expect(std::string_view expected) {
  const Token token = next();
  if (token.text != expected) {
    throw ParseError("expected '" + std::string(expected) + "', got '" +
                         token.text + "'",
                     token.line);
  }
}

void Tokenizer::skipStatement() {
  while (!atEnd()) {
    if (next().text == ";") return;
  }
}

bool Tokenizer::accept(std::string_view text) {
  if (atEnd() || next_.text != text) return false;
  lastLine_ = next_.line;
  advance();
  return true;
}

double Tokenizer::nextDouble() {
  const Token token = next();
  char* end = nullptr;
  const double value = std::strtod(token.text.c_str(), &end);
  if (end == token.text.c_str() || *end != '\0') {
    throw ParseError("expected number, got '" + token.text + "'", token.line);
  }
  return value;
}

long long Tokenizer::nextInt() {
  const Token token = next();
  char* end = nullptr;
  const long long value = std::strtoll(token.text.c_str(), &end, 10);
  if (end == token.text.c_str() || *end != '\0') {
    throw ParseError("expected integer, got '" + token.text + "'",
                     token.line);
  }
  return value;
}

}  // namespace crp::lefdef
