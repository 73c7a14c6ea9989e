#include "span.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace ovbench {

int SpanLog::open(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start = secondsBetween(origin_, Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.pass = pass_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end =
      secondsBetween(origin_, Clock::now());
  // Spans are scoped, so the one closing is the innermost open one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::writeJsonLines(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start\": " << s.start << ", \"end\": " << s.end
       << ", \"parent\": " << s.parent << ", \"pass\": " << s.pass << "}\n";
  }
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;  // end of the union covered so far
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

double selfTimeOf(const std::vector<Span>& spans,
                  const std::vector<double>& self, std::string_view name,
                  int pass) {
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pass == pass && spans[i].name == name) total += self[i];
  }
  return total;
}

}  // namespace ovbench
