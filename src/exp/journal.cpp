#include "exp/journal.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace cmdare::exp {
namespace {

constexpr std::string_view kMagic = "#cmdare-campaign-journal v1";

// The line grammar is tab-separated; free-text fields (metric names,
// error text, serialized ledger events) get \\ \t \n escaped so any
// content survives. The inverse rejects dangling or unknown escapes.
std::string escape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

bool unescape_field(std::string_view s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      *out += s[i];
      continue;
    }
    if (++i == s.size()) return false;
    switch (s[i]) {
      case '\\':
        *out += '\\';
        break;
      case 't':
        *out += '\t';
        break;
      case 'n':
        *out += '\n';
        break;
      default:
        return false;
    }
  }
  return true;
}

[[noreturn]] void bad_line(int line_number, const std::string& what) {
  throw std::invalid_argument("campaign journal line " +
                              std::to_string(line_number) + ": " + what);
}

}  // namespace

std::string format_journal_header(const JournalHeader& header) {
  std::string out(kMagic);
  out += " seed=" + std::to_string(header.seed);
  out += " cells=" + std::to_string(header.cells);
  out += " replicas=" + std::to_string(header.replicas);
  out += " telemetry=";
  out += header.telemetry ? '1' : '0';
  return out;
}

std::string format_journal_entry(const JournalEntry& entry) {
  std::string out = std::to_string(entry.cell);
  out += '\t';
  out += std::to_string(entry.replica);
  if (entry.failed) {
    out += "\tfail\t";
    out += escape_field(entry.error);
    out += "\tend";
    return out;
  }
  out += "\tok\t";
  out += std::to_string(entry.observations.size());
  for (const auto& [metric, value] : entry.observations) {
    out += '\t';
    out += escape_field(metric);
    out += '\t';
    out += util::format_shortest(value);
  }
  out += '\t';
  out += std::to_string(entry.ledger.size());
  for (const obs::LedgerEvent& event : entry.ledger) {
    out += '\t';
    out += escape_field(obs::serialize_ledger_event(event));
  }
  out += "\tend";
  return out;
}

JournalContents parse_journal(std::string_view text) {
  JournalContents contents;
  const std::vector<std::string> lines = util::split(text, '\n');

  // Locate the last non-empty line: only *it* may be torn (the writer
  // flushes line-by-line, so a crash tears at most the final append).
  std::size_t last_content = 0;
  bool any_content = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!util::trim(lines[i]).empty()) {
      last_content = i;
      any_content = true;
    }
  }
  if (!any_content) {
    throw std::invalid_argument("campaign journal: empty file (no header)");
  }

  // Header.
  const std::string& first = lines[0];
  if (first.substr(0, kMagic.size()) != kMagic) {
    throw std::invalid_argument(
        "campaign journal: missing \"#cmdare-campaign-journal v1\" header");
  }
  for (const std::string& token :
       util::split(util::trim(first.substr(kMagic.size())), ' ')) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("campaign journal: bad header token \"" +
                                  token + "\"");
    }
    const std::string_view key = std::string_view(token).substr(0, eq);
    const std::string_view value = std::string_view(token).substr(eq + 1);
    unsigned long long parsed = 0;
    if (!util::parse_number(value, &parsed)) {
      throw std::invalid_argument("campaign journal: bad header value \"" +
                                  token + "\"");
    }
    if (key == "seed") {
      contents.header.seed = parsed;
    } else if (key == "cells") {
      contents.header.cells = static_cast<std::size_t>(parsed);
    } else if (key == "replicas") {
      contents.header.replicas = static_cast<int>(parsed);
    } else if (key == "telemetry") {
      contents.header.telemetry = parsed != 0;
    } else {
      throw std::invalid_argument("campaign journal: unknown header key \"" +
                                  std::string(key) + "\"");
    }
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (util::trim(lines[i]).empty()) continue;
    const int line_number = static_cast<int>(i) + 1;
    const std::vector<std::string> fields = util::split(lines[i], '\t');
    const bool torn = fields.empty() || fields.back() != "end";
    if (torn) {
      if (i == last_content) continue;  // the crash's torn final append
      bad_line(line_number, "missing \"end\" marker before the final line");
    }
    if (fields.size() < 4) bad_line(line_number, "too few fields");

    JournalEntry entry;
    unsigned long long cell = 0;
    unsigned long long replica = 0;
    if (!util::parse_number(fields[0], &cell) ||
        !util::parse_number(fields[1], &replica)) {
      bad_line(line_number, "bad cell/replica indices");
    }
    entry.cell = static_cast<std::size_t>(cell);
    entry.replica = static_cast<int>(replica);

    std::size_t f = 3;  // first field after the ok/fail tag
    if (fields[2] == "fail") {
      entry.failed = true;
      if (fields.size() != 5 || !unescape_field(fields[3], &entry.error)) {
        bad_line(line_number, "bad failure record");
      }
      contents.entries.push_back(std::move(entry));
      continue;
    }
    if (fields[2] != "ok") bad_line(line_number, "unknown record tag");

    unsigned long long observation_count = 0;
    if (!util::parse_number(fields[f++], &observation_count) ||
        fields.size() < f + 2 * observation_count + 1) {
      bad_line(line_number, "bad observation count");
    }
    entry.observations.reserve(observation_count);
    for (unsigned long long k = 0; k < observation_count; ++k) {
      std::string metric;
      double value = 0.0;
      if (!unescape_field(fields[f], &metric) ||
          !util::parse_number(fields[f + 1], &value)) {
        bad_line(line_number, "bad observation");
      }
      entry.observations.emplace_back(std::move(metric), value);
      f += 2;
    }

    unsigned long long event_count = 0;
    if (!util::parse_number(fields[f++], &event_count) ||
        fields.size() != f + event_count + 1) {  // + the "end" marker
      bad_line(line_number, "bad ledger event count");
    }
    entry.ledger.reserve(event_count);
    for (unsigned long long k = 0; k < event_count; ++k) {
      std::string event_text;
      if (!unescape_field(fields[f++], &event_text)) {
        bad_line(line_number, "bad ledger event escape");
      }
      obs::LedgerParseResult parsed = obs::parse_ledger_jsonl(event_text);
      if (!parsed.ok() || parsed.ledger.size() != 1) {
        bad_line(line_number, "bad ledger event");
      }
      entry.ledger.push_back(parsed.ledger.events().front());
    }
    contents.entries.push_back(std::move(entry));
  }
  return contents;
}

}  // namespace cmdare::exp
