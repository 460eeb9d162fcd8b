#include "common/format.h"

#include <cstdarg>
#include <cstdio>

#include "common/check.h"

namespace mepipe {

std::string StrFormat(const char* fmt, ...) {
  // One pass into a stack buffer; only an output that does not fit
  // formats a second time into the string.
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  MEPIPE_CHECK_GE(needed, 0);
  std::string out;
  if (static_cast<std::size_t>(needed) < sizeof(buffer)) {
    out.assign(buffer, static_cast<std::size_t>(needed));
  } else {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string PadRight(const std::string& text, std::size_t width) {
  if (text.size() >= width) {
    return text.substr(0, width);
  }
  return text + std::string(width - text.size(), ' ');
}

std::string PadLeft(const std::string& text, std::size_t width) {
  if (text.size() >= width) {
    return text;
  }
  return std::string(width - text.size(), ' ') + text;
}

std::string RenderTable(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) {
    return "";
  }
  const std::size_t columns = rows.front().size();
  std::vector<std::size_t> widths(columns, 0);
  for (const auto& row : rows) {
    MEPIPE_CHECK_EQ(row.size(), columns) << "ragged table row";
    for (std::size_t c = 0; c < columns; ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < columns; ++c) {
      out += PadRight(rows[r][c], widths[c]);
      if (c + 1 < columns) {
        out += "  ";
      }
    }
    out += '\n';
    if (r == 0) {
      for (std::size_t c = 0; c < columns; ++c) {
        out += std::string(widths[c], '-');
        if (c + 1 < columns) {
          out += "  ";
        }
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace mepipe
