#include "core/elastic.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/cli.hpp"

namespace hetsgd::core {

namespace {

bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && end != s.c_str();
}

bool parse_int(const std::string& s, std::int64_t& out) {
  char* end = nullptr;
  out = std::strtoll(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && end != s.c_str();
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(s.substr(begin));
      break;
    }
    parts.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

}  // namespace

bool ElasticPlan::parse(const std::string& spec, ElasticPlan* out,
                        std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  out->events.clear();
  for (const std::string& item : split(spec, ';')) {
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return fail("elastic event missing ':' — " + item);
    }
    ElasticEvent ev;
    const std::string kind = item.substr(0, colon);
    if (kind == "join") {
      ev.kind = ElasticEvent::Kind::kJoin;
    } else if (kind == "retire") {
      ev.kind = ElasticEvent::Kind::kRetire;
    } else {
      return fail("unknown elastic event '" + kind + "' (join|retire)");
    }
    for (const std::string& kv : split(item.substr(colon + 1), ',')) {
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return fail("elastic parameter missing '=' — " + kv);
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      std::int64_t iv = 0;
      double dv = 0.0;
      if (key == "kind") {
        if (value == "cpu") {
          ev.device = backend::DeviceKind::kCpu;
        } else if (value == "gpu") {
          ev.device = backend::DeviceKind::kGpu;
        } else {
          return fail("bad worker kind — " + kv + " (cpu|gpu)");
        }
      } else if (key == "worker") {
        if (!parse_int(value, iv) || iv < 0) {
          return fail("bad worker id — " + kv);
        }
        ev.worker = static_cast<msg::WorkerId>(iv);
      } else if (key == "at") {
        if (!parse_double(value, dv) || dv < 0.0) {
          return fail("bad trigger time — " + kv);
        }
        ev.at_vtime = dv;
      } else if (key == "atfrac") {
        if (!parse_double(value, dv) || dv < 0.0) {
          return fail("bad trigger fraction — " + kv);
        }
        ev.at_fraction = dv;
      } else {
        return fail("unknown elastic parameter '" + key + "'");
      }
    }
    if (ev.kind == ElasticEvent::Kind::kRetire && ev.worker < 0) {
      return fail("retire event missing worker= — " + item);
    }
    if (ev.at_vtime < 0.0 && ev.at_fraction < 0.0) {
      return fail("elastic event needs at= or atfrac= — " + item);
    }
    out->events.push_back(ev);
  }
  return true;
}

void ElasticPlan::resolve_times(double budget_vseconds) {
  for (ElasticEvent& ev : events) {
    if (ev.at_vtime >= 0.0) continue;
    ev.at_vtime = ev.at_fraction * budget_vseconds;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ElasticEvent& a, const ElasticEvent& b) {
                     return a.at_vtime < b.at_vtime;
                   });
}

void register_elastic_flags(CliParser& cli, std::string* plan) {
  cli.add_string("elastic-plan", plan,
                 "membership changes, e.g. "
                 "'join:kind=gpu,atfrac=0.3;retire:worker=1,atfrac=0.6'");
}

}  // namespace hetsgd::core
