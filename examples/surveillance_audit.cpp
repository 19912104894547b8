// Surveillance audit: makes the paper's surveillance-resistance property
// visible. Shares an object with both constructions, lets a receiver open
// both, then scans everything the service provider and the storage host
// store, proving the plaintext and the context answers appear nowhere.
#include <algorithm>
#include <cstdio>

#include "core/session.hpp"

namespace {

bool blob_contains(const sp::crypto::Bytes& haystack, const sp::crypto::Bytes& needle) {
  if (needle.empty() || needle.size() > haystack.size()) return false;
  return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
         haystack.end();
}

}  // namespace

int main() {
  using namespace sp::core;
  using sp::crypto::to_bytes;

  SessionConfig config;
  config.pairing_preset = sp::ec::ParamPreset::kTest;
  config.seed = "audit";
  Session session(config);

  const auto sharer = session.register_user("sharer");
  const auto receiver = session.register_user("receiver");
  session.befriend(sharer, receiver);

  const auto secret = to_bytes("THE-PLAINTEXT-SECRET: we are moving to Lisbon in May");
  Context ctx;
  ctx.add("Where are we moving?", "Lisbon");
  ctx.add("Which month?", "May");
  ctx.add("Who told you first?", "Marta");

  const auto r1 = session.share_c1(sharer, secret, ctx, 2, 3, sp::net::pc_profile());
  const auto r2 = session.share_c2(sharer, secret, ctx, 2, sp::net::pc_profile());

  // A legitimate receiver decrypts both — the protocol *works*...
  const auto a1 = session.access(receiver, r1.post_id, Knowledge::full(ctx), sp::net::pc_profile());
  const auto a2 = session.access(receiver, r2.post_id, Knowledge::full(ctx), sp::net::pc_profile());
  std::printf("receiver decrypted C1 share: %s\n", a1.success() ? "yes" : "NO");
  std::printf("receiver decrypted C2 share: %s\n\n", a2.success() ? "yes" : "NO");

  // ...while everything the hosts store stays clean.
  auto& sp_host = session.service_provider();
  std::printf("service provider stores %zu records; storage host stores %zu blobs\n",
              sp_host.record_count(), session.storage_host().object_count());

  struct Probe {
    const char* label;
    sp::crypto::Bytes needle;
  };
  std::vector<Probe> probes = {{"object plaintext", secret}};
  for (const auto& p : ctx.pairs()) {
    probes.push_back({"answer", to_bytes(Context::normalize_answer(p.answer))});
  }

  bool leaked = false;
  for (const auto& probe : probes) {
    const bool in_sp = sp_host.view_contains(probe.needle);
    bool in_dh = false;
    for (const auto& [url, blob] : session.storage_host().observed_blobs()) {
      in_dh = in_dh || blob_contains(blob, probe.needle);
    }
    std::printf("  %-17s \"%.*s\"  in SP view: %-3s  in DH view: %s\n", probe.label,
                static_cast<int>(std::min<std::size_t>(probe.needle.size(), 24)),
                reinterpret_cast<const char*>(probe.needle.data()), in_sp ? "YES" : "no",
                in_dh ? "YES" : "no");
    leaked = leaked || in_sp || in_dh;
  }

  // Questions are public by design — show that contrast.
  const bool questions_visible = sp_host.view_contains(to_bytes("Where are we moving?"));
  std::printf("  %-17s (public by design)         in SP view: %s\n", "question",
              questions_visible ? "YES" : "no");

  std::printf("\n%s\n", leaked ? "LEAK DETECTED — surveillance resistance violated!"
                               : "clean: hosts stored and verified everything without learning "
                                 "the object or the context");
  return (!leaked && a1.success() && a2.success()) ? 0 : 1;
}
