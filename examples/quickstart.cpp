// Quickstart: share a message behind a social puzzle (Construction 1) and
// access it as a friend who knows the context.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/session.hpp"

int main() {
  using namespace sp::core;

  // A simulated OSN session: social graph + service provider + storage host
  // + network model, all seeded for reproducibility.
  SessionConfig config;
  config.pairing_preset = sp::ec::ParamPreset::kTest;  // 256-bit demo parameters
  config.seed = "quickstart";
  Session session(config);

  const auto alice = session.register_user("alice");
  const auto bob = session.register_user("bob");
  const auto carol = session.register_user("carol");
  session.befriend(alice, bob);
  session.befriend(alice, carol);

  // Alice shares a message gated on knowledge of last week's dinner:
  // receivers must answer at least 2 of the 4 context questions.
  Context ctx;
  ctx.add("Where did we have dinner last week?", "Luigi's");
  ctx.add("What did we celebrate?", "Bob's promotion");
  ctx.add("Who picked up the bill?", "Alice");
  ctx.add("What dessert did we share?", "tiramisu");

  const auto object = sp::crypto::to_bytes("Here's the reservation code for next time: XK-42-TIRAMISU");
  const auto receipt = session.share_c1(alice, object, ctx, /*k=*/2, /*n=*/4,
                                        sp::net::pc_profile());
  std::printf("alice shared post %s (%.2f ms local, %.2f ms network, %zu bytes)\n",
              receipt.post_id.c_str(), receipt.cost.local_ms(), receipt.cost.network_ms(),
              receipt.cost.bytes_transferred());

  // Bob was at dinner: he knows the answers. The SP shows a random subset
  // of at least k questions, which may miss his two, so he reloads the
  // puzzle until a draw shows them (access_with_retries).
  Knowledge bob_knows;
  bob_knows.learn("Where did we have dinner last week?", "luigi's");
  bob_knows.learn("What did we celebrate?", "bob's promotion");
  const auto bob_result =
      session.access_with_retries(bob, receipt.post_id, bob_knows, sp::net::pc_profile());
  if (bob_result.success()) {
    std::printf("bob solved the puzzle: \"%s\"\n",
                sp::crypto::to_string(*bob_result.object).c_str());
  } else {
    std::printf("bob was denied\n");
  }

  // Carol wasn't there — she guesses and is denied by the service provider.
  Knowledge carol_guesses;
  carol_guesses.learn("Where did we have dinner last week?", "McDonald's");
  carol_guesses.learn("What did we celebrate?", "a birthday");
  const auto carol_result =
      session.access(carol, receipt.post_id, carol_guesses, sp::net::pc_profile());
  std::printf("carol %s\n", carol_result.granted ? "got in (unexpected!)" : "was denied, as intended");

  return bob_result.success() && !carol_result.granted ? 0 : 1;
}
