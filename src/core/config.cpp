#include "core/config.hpp"

#include <charconv>
#include <sstream>

namespace tango::core {

namespace {

std::string quoted(const std::string& s) { return '"' + s + '"'; }

/// Splits a config line into space-separated tokens; a token wrapped in
/// double quotes may contain spaces.  A quote anywhere else — unbalanced,
/// inside a bare token, or glued to the next token — is malformed (nullopt):
/// render_config could not write such a token back.
std::optional<std::vector<std::string>> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    if (line[i] == '"') {
      auto end = line.find('"', i + 1);
      if (end == std::string::npos) return std::nullopt;
      if (end + 1 < line.size() && line[end + 1] != ' ') return std::nullopt;
      out.push_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      auto end = line.find_first_of(" \"", i);
      if (end == std::string::npos) end = line.size();
      if (end < line.size() && line[end] == '"') return std::nullopt;
      out.push_back(line.substr(i, end - i));
      i = end;
    }
  }
  return out;
}

}  // namespace

std::string render_config(const TangoConfig& config) {
  std::ostringstream out;
  out << "tango-config v1\n";
  out << "peer-host-prefix " << config.peer_host_prefix.to_string() << "\n";
  for (const TunnelConfigEntry& entry : config.tunnels) {
    const dataplane::Tunnel& t = entry.tunnel;
    out << "tunnel " << t.id << " label " << quoted(t.label) << " local "
        << t.local_endpoint.to_string() << " remote " << t.remote_endpoint.to_string()
        << " prefix " << t.remote_prefix.to_string() << " udp-src " << t.udp_src_port
        << " communities " << quoted(entry.communities.to_string()) << "\n";
  }
  return out.str();
}

std::optional<TangoConfig> parse_config(const std::string& text, std::string* error) {
  TangoConfig config;
  std::istringstream in{text};
  std::string line;
  bool saw_header = false;
  bool saw_peer = false;

  auto err = [error](const std::string& message) -> std::optional<TangoConfig> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    auto tokens_opt = tokenize(line);
    if (!tokens_opt) return err("misplaced quote: " + line);
    const auto& tokens = *tokens_opt;
    if (tokens.empty()) continue;

    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "tango-config" || tokens[1] != "v1") {
        return err("missing 'tango-config v1' header");
      }
      saw_header = true;
      continue;
    }

    if (tokens[0] == "peer-host-prefix") {
      if (tokens.size() != 2) return err("peer-host-prefix: expected one prefix");
      auto p = net::Ipv6Prefix::parse(tokens[1]);
      if (!p) return err("peer-host-prefix: bad prefix " + tokens[1]);
      config.peer_host_prefix = *p;
      saw_peer = true;
      continue;
    }

    if (tokens[0] == "tunnel") {
      // tunnel <id> label "<l>" local <a> remote <a> prefix <p>
      //        udp-src <port> communities "<set>"  => 14 tokens
      if (tokens.size() != 14) return err("tunnel line: expected 14 tokens, got " +
                                          std::to_string(tokens.size()));
      TunnelConfigEntry entry;

      std::uint32_t id = 0;
      auto [p1, ec1] = std::from_chars(tokens[1].data(), tokens[1].data() + tokens[1].size(), id);
      if (ec1 != std::errc{} || p1 != tokens[1].data() + tokens[1].size() || id > 0xFFFF) {
        return err("tunnel: bad id " + tokens[1]);
      }
      entry.tunnel.id = static_cast<dataplane::PathId>(id);

      if (tokens[2] != "label") return err("tunnel: expected 'label'");
      entry.tunnel.label = tokens[3];
      if (tokens[4] != "local") return err("tunnel: expected 'local'");
      auto local = net::Ipv6Address::parse(tokens[5]);
      if (!local) return err("tunnel: bad local address " + tokens[5]);
      entry.tunnel.local_endpoint = *local;
      if (tokens[6] != "remote") return err("tunnel: expected 'remote'");
      auto remote = net::Ipv6Address::parse(tokens[7]);
      if (!remote) return err("tunnel: bad remote address " + tokens[7]);
      entry.tunnel.remote_endpoint = *remote;
      if (tokens[8] != "prefix") return err("tunnel: expected 'prefix'");
      auto prefix = net::Ipv6Prefix::parse(tokens[9]);
      if (!prefix) return err("tunnel: bad prefix " + tokens[9]);
      entry.tunnel.remote_prefix = *prefix;
      if (tokens[10] != "udp-src") return err("tunnel: expected 'udp-src'");
      std::uint32_t port = 0;
      auto [p2, ec2] =
          std::from_chars(tokens[11].data(), tokens[11].data() + tokens[11].size(), port);
      if (ec2 != std::errc{} || p2 != tokens[11].data() + tokens[11].size() || port > 0xFFFF) {
        return err("tunnel: bad udp-src " + tokens[11]);
      }
      entry.tunnel.udp_src_port = static_cast<std::uint16_t>(port);
      if (tokens[12] != "communities") return err("tunnel: expected 'communities'");
      auto communities = bgp::CommunitySet::parse(tokens[13]);
      if (!communities) return err("tunnel: bad communities " + tokens[13]);
      entry.communities = *communities;

      config.tunnels.push_back(std::move(entry));
      continue;
    }

    return err("unknown directive: " + tokens[0]);
  }

  if (!saw_header) return err("empty config");
  if (!saw_peer) return err("missing peer-host-prefix");
  return config;
}

}  // namespace tango::core
