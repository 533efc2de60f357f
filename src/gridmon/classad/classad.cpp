#include "gridmon/classad/classad.hpp"

#include <stdexcept>

#include "gridmon/classad/parser.hpp"

namespace gridmon::classad {

ClassAd& ClassAd::operator=(const ClassAd& other) {
  if (this == &other) return *this;
  attrs_.clear();
  attrs_.reserve(other.attrs_.size());
  for (const auto& a : other.attrs_) {
    attrs_.push_back({a.name, a.key, a.expr->clone()});
  }
  return *this;
}

std::uint64_t ClassAd::key_of(std::string_view name) noexcept {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<unsigned char>(fold(c));
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t ClassAd::find(std::string_view name,
                          std::uint64_t key) const noexcept {
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].key == key && istrcmp(attrs_[i].name, name) == 0) return i;
  }
  return attrs_.size();
}

void ClassAd::put(std::string&& name, std::uint64_t key, ExprPtr expr) {
  std::size_t i = find(name, key);
  if (i < attrs_.size()) {
    attrs_[i].expr = std::move(expr);
  } else {
    attrs_.push_back({std::move(name), key, std::move(expr)});
  }
}

ClassAd ClassAd::parse(std::string_view text) {
  ClassAd ad;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;

    // Trim.
    std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) continue;
    std::size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    if (line.empty() || line.front() == '#') continue;

    // Split on the first '=' that is not part of ==, =?=, =!=, <=, >=, !=.
    std::size_t eq = std::string_view::npos;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] != '=') continue;
      if (i + 1 < line.size() &&
          (line[i + 1] == '=' || line[i + 1] == '?' || line[i + 1] == '!')) {
        ++i;  // skip the operator
        continue;
      }
      if (i > 0 && (line[i - 1] == '=' || line[i - 1] == '<' ||
                    line[i - 1] == '>' || line[i - 1] == '!')) {
        continue;
      }
      eq = i;
      break;
    }
    if (eq == std::string_view::npos) {
      throw ParseError("classad line missing '=': " + std::string(line));
    }
    std::string name(line.substr(0, eq));
    std::size_t ne = name.find_last_not_of(" \t");
    if (ne == std::string::npos) {
      throw ParseError("classad line missing attribute name");
    }
    name.resize(ne + 1);
    ad.insert_text(std::move(name), line.substr(eq + 1));
  }
  return ad;
}

void ClassAd::insert(std::string name, ExprPtr expr) {
  const std::uint64_t key = key_of(name);
  put(std::move(name), key, std::move(expr));
}

void ClassAd::insert_text(std::string name, std::string_view expr_text) {
  insert(std::move(name), parse_expression(expr_text));
}

void ClassAd::insert(std::string name, std::int64_t v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::integer(v)));
}
void ClassAd::insert(std::string name, double v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::real(v)));
}
void ClassAd::insert(std::string name, bool v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::boolean(v)));
}
void ClassAd::insert(std::string name, const std::string& v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::string(v)));
}
void ClassAd::insert(std::string name, const char* v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::string(v)));
}

bool ClassAd::erase(std::string_view name) {
  std::size_t i = find(name, key_of(name));
  if (i == attrs_.size()) return false;
  attrs_.erase(attrs_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

bool ClassAd::contains(std::string_view name) const {
  return find(name, key_of(name)) < attrs_.size();
}

const Expr* ClassAd::lookup(std::string_view name) const {
  std::size_t i = find(name, key_of(name));
  return i < attrs_.size() ? attrs_[i].expr.get() : nullptr;
}

Value ClassAd::evaluate(const std::string& name, const ClassAd* target,
                        double current_time) const {
  const Expr* e = lookup(name);
  if (e == nullptr) return Value::undefined();
  return evaluate_expr(*e, target, current_time);
}

Value ClassAd::evaluate_expr(const Expr& e, const ClassAd* target,
                             double current_time) const {
  EvalContext ctx;
  ctx.my = this;
  ctx.target = target;
  ctx.current_time = current_time;
  return e.evaluate(ctx);
}

void ClassAd::update(const ClassAd& other) {
  for (const auto& a : other.attrs_) {
    put(std::string(a.name), a.key, a.expr->clone());
  }
}

void ClassAd::update(ClassAd&& other) {
  if (this == &other) return;
  for (auto& a : other.attrs_) put(std::move(a.name), a.key, std::move(a.expr));
  other.attrs_.clear();
}

std::vector<std::string> ClassAd::names() const {
  std::vector<std::string> out;
  for (const auto& a : attrs_) out.push_back(a.name);
  return out;
}

std::string ClassAd::to_string() const {
  std::string out;
  for (const auto& a : attrs_) {
    out += a.name;
    out += " = ";
    out += a.expr->to_string();
    out += '\n';
  }
  return out;
}

double ClassAd::wire_bytes() const {
  std::size_t n = 0;
  for (const auto& a : attrs_) {
    n += a.name.size() + a.expr->to_string().size() + 4;  // " = ", '\n'
  }
  return static_cast<double>(n);
}

}  // namespace gridmon::classad
