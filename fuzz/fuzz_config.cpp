// Fuzz harness: the static tunnel configuration decoder (paper §4) —
// core::parse_config on arbitrary operator text.
//
// Contract checked on every input:
//   * a failed parse reports why: `error` is set and non-empty;
//   * parsing is stable under its own renderer:
//     parse_config(render_config(*parse_config(x))) == parse_config(x).
#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "fuzz_util.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using namespace tango::core;

  const std::string text{reinterpret_cast<const char*>(data), size};
  std::string error;
  const auto config = parse_config(text, &error);
  if (!config) {
    FUZZ_CHECK(!error.empty(), "a failed parse must set error");
    return 0;
  }

  const auto again = parse_config(render_config(*config));
  FUZZ_CHECK(again.has_value(), "a rendered config must parse");
  FUZZ_CHECK(*again == *config, "parse(render(parse(x))) must equal parse(x)");
  return 0;
}
