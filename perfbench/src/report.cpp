#include "report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Result::info(const std::string& name, const std::string& text) {
  info_.emplace_back(name, text);
}

void Result::op(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Result::ops(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Result::check(const std::string& name, bool pass,
                   const std::string& detail) {
  op(pass);
  checks_.push_back({name, pass, detail});
  if (!pass) fail(name + ": " + detail);
  return pass;
}

void Result::fail(const std::string& message) {
  if (errors_.size() < 8) errors_.push_back(message);
}

namespace {

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string numbers(const std::vector<Result::Number>& list) {
  std::string out = "{";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + escape(list[i].name) + "\": {\"value\": " +
           number(list[i].value) + ", \"unit\": \"" + escape(list[i].unit) +
           "\"}";
  }
  return out + "}";
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + escape(info_[i].first) + "\": \"" +
           escape(info_[i].second) + "\"";
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + escape(checks_[i].name) + "\", \"pass\": " +
           (checks_[i].pass ? "true" : "false") + ", \"detail\": \"" +
           escape(checks_[i].detail) + "\"}";
  }
  out += "], \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + escape(errors_[i]) + "\"";
  }
  out += "], \"details\": " + numbers(details_) +
         ", \"metrics\": " + numbers(metrics_) + "}";
  return out;
}

}  // namespace perfbench
