#pragma once

/// \file classad.hpp
/// The ClassAd itself: named expressions in one insertion-ordered vector,
/// with old-syntax ("Attr = expr" per line) parsing and printing. Names
/// match case-insensitively (ASCII); a replace keeps the first spelling and
/// slot. Each name is folded and hashed once when stored, so a lookup
/// hashes the query once and scans 64-bit keys.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gridmon/classad/expr.hpp"
#include "gridmon/classad/value.hpp"

namespace gridmon::classad {

class ClassAd {
 public:
  ClassAd() = default;
  ClassAd(const ClassAd& other) { *this = other; }
  ClassAd& operator=(const ClassAd& other);
  ClassAd(ClassAd&&) noexcept = default;
  ClassAd& operator=(ClassAd&&) noexcept = default;

  /// Parse an old-syntax ad: one `Attr = expr` per line. Blank lines and
  /// lines starting with '#' are skipped. Throws on malformed input.
  static ClassAd parse(std::string_view text);

  /// Insert (or replace) an attribute with an already-built expression.
  void insert(std::string name, ExprPtr expr);
  /// Insert (or replace) an attribute parsed from expression text.
  void insert_text(std::string name, std::string_view expr_text);
  /// Shorthands for literal values.
  void insert(std::string name, std::int64_t v);
  void insert(std::string name, double v);
  void insert(std::string name, bool v);
  void insert(std::string name, const std::string& v);
  void insert(std::string name, const char* v);

  bool erase(std::string_view name);
  bool contains(std::string_view name) const;
  std::size_t size() const noexcept { return attrs_.size(); }
  bool empty() const noexcept { return attrs_.empty(); }

  /// The raw expression bound to `name`, or nullptr.
  const Expr* lookup(std::string_view name) const;

  /// Evaluate attribute `name` with this ad as MY and an optional TARGET.
  Value evaluate(const std::string& name, const ClassAd* target = nullptr,
                 double current_time = 0) const;

  /// Evaluate an arbitrary expression in this ad's scope.
  Value evaluate_expr(const Expr& e, const ClassAd* target = nullptr,
                      double current_time = 0) const;

  /// Merge: copy every attribute of `other` into this ad (overwriting).
  void update(const ClassAd& other);
  /// Merge by moving `other`'s expressions in instead of cloning them.
  void update(ClassAd&& other);

  /// Attribute names in insertion order.
  std::vector<std::string> names() const;

  /// Old-syntax rendering, one attribute per line, insertion order.
  std::string to_string() const;

  /// Approximate wire size in bytes when shipped between daemons.
  double wire_bytes() const;

 private:
  struct Attr {
    std::string name;  // as first spelled
    std::uint64_t key;  // hash of the folded name
    ExprPtr expr;
  };

  static std::uint64_t key_of(std::string_view name) noexcept;
  /// Index of the attribute called `name` (hashed to `key`), or size().
  std::size_t find(std::string_view name, std::uint64_t key) const noexcept;
  void put(std::string&& name, std::uint64_t key, ExprPtr expr);

  std::vector<Attr> attrs_;
};

}  // namespace gridmon::classad
