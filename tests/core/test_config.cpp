#include "core/config.hpp"

#include <gtest/gtest.h>

namespace tango::core {
namespace {

TangoConfig sample_config() {
  TangoConfig config;
  config.peer_host_prefix = *net::Ipv6Prefix::parse("2620:110:901b::/48");
  config.tunnels.push_back(TunnelConfigEntry{
      .tunnel = {.id = 1,
                 .label = "NTT",
                 .local_endpoint = *net::Ipv6Address::parse("2620:110:9001::1"),
                 .remote_endpoint = *net::Ipv6Address::parse("2620:110:9011::1"),
                 .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9011::/48"),
                 .udp_src_port = 49153},
      .communities = {}});
  config.tunnels.push_back(TunnelConfigEntry{
      .tunnel = {.id = 4,
                 .label = "NTT Cogent",
                 .local_endpoint = *net::Ipv6Address::parse("2620:110:9004::1"),
                 .remote_endpoint = *net::Ipv6Address::parse("2620:110:9014::1"),
                 .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9014::/48"),
                 .udp_src_port = 49156},
      .communities = *bgp::CommunitySet::parse("64600:1299 64600:2914 64600:3257")});
  return config;
}

TEST(Config, RenderContainsEveryField) {
  const std::string text = render_config(sample_config());
  EXPECT_NE(text.find("tango-config v1"), std::string::npos);
  EXPECT_NE(text.find("peer-host-prefix 2620:110:901b::/48"), std::string::npos);
  EXPECT_NE(text.find("tunnel 1 label \"NTT\""), std::string::npos);
  EXPECT_NE(text.find("label \"NTT Cogent\""), std::string::npos);
  EXPECT_NE(text.find("udp-src 49153"), std::string::npos);
  EXPECT_NE(text.find("communities \"64600:1299 64600:2914 64600:3257\""), std::string::npos);
}

TEST(Config, RoundTrips) {
  const TangoConfig original = sample_config();
  std::string error;
  auto parsed = parse_config(render_config(original), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, original);
}

TEST(Config, ParseToleratesCommentsAndBlankLines) {
  const std::string text =
      "tango-config v1\n"
      "# a comment\n"
      "\n"
      "peer-host-prefix 2620:110:901b::/48\n";
  auto parsed = parse_config(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->tunnels.empty());
}

TEST(Config, ParseRejectsMalformed) {
  std::string error;
  EXPECT_FALSE(parse_config("", &error).has_value());
  EXPECT_NE(error.find("empty"), std::string::npos);

  EXPECT_FALSE(parse_config("not-a-config\n", &error).has_value());

  // Missing peer prefix.
  EXPECT_FALSE(parse_config("tango-config v1\n", &error).has_value());
  EXPECT_NE(error.find("peer-host-prefix"), std::string::npos);

  // Unknown directive.
  EXPECT_FALSE(
      parse_config("tango-config v1\npeer-host-prefix 2620:110:901b::/48\nbogus x\n", &error)
          .has_value());

  // Bad tunnel lines.
  const std::string base = "tango-config v1\npeer-host-prefix 2620:110:901b::/48\n";
  EXPECT_FALSE(parse_config(base + "tunnel 1\n", &error).has_value());
  EXPECT_FALSE(parse_config(base +
                                "tunnel 999999 label \"x\" local ::1 remote ::2 prefix "
                                "2001:db8::/48 udp-src 1 communities \"\"\n",
                            &error)
                   .has_value());
  EXPECT_FALSE(parse_config(base +
                                "tunnel 1 label \"x\" local junk remote ::2 prefix "
                                "2001:db8::/48 udp-src 1 communities \"\"\n",
                            &error)
                   .has_value());
  EXPECT_FALSE(parse_config(base +
                                "tunnel 1 label \"x\" local ::1 remote ::2 prefix "
                                "2001:db8::/48 udp-src 99999 communities \"\"\n",
                            &error)
                   .has_value());
  EXPECT_FALSE(parse_config(base +
                                "tunnel 1 label \"x\" local ::1 remote ::2 prefix "
                                "2001:db8::/48 udp-src 1 communities \"junk\"\n",
                            &error)
                   .has_value());
  // Unbalanced quote.
  EXPECT_FALSE(parse_config(base + "tunnel 1 label \"x local ::1\n", &error).has_value());
}

TEST(Config, ParseRejectsQuotesTheRendererCannotWriteBack) {
  // A quote inside a bare token, or a closing quote glued to the next token,
  // would parse to a label that render_config() cannot quote back.
  const std::string base = "tango-config v1\npeer-host-prefix 2620:110:901b::/48\n";
  const std::string tail =
      " local ::1 remote ::2 prefix 2001:db8::/48 udp-src 1 communities \"\"\n";
  std::string error;
  EXPECT_FALSE(parse_config(base + "tunnel 1 label NTT\"" + tail, &error).has_value());
  EXPECT_NE(error.find("misplaced quote"), std::string::npos) << error;
  EXPECT_FALSE(parse_config(base + "tunnel 1 label \"NTT\"x" + tail, &error).has_value());
  EXPECT_TRUE(parse_config(base + "tunnel 1 label \"NTT\"" + tail, &error).has_value())
      << error;
}

TEST(Config, LabelsWithSpacesSurvive) {
  TangoConfig config;
  config.peer_host_prefix = *net::Ipv6Prefix::parse("2620:110:901b::/48");
  config.tunnels.push_back(TunnelConfigEntry{
      .tunnel = {.id = 2, .label = "NTT Level3 via peering", .udp_src_port = 1},
      .communities = {}});
  auto parsed = parse_config(render_config(config));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tunnels[0].tunnel.label, "NTT Level3 via peering");
}

}  // namespace
}  // namespace tango::core
