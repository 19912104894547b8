// fault-scope fixture: the path is a module file of a src/ tree (src/osn/),
// neither net/faults.* nor a session file, so naming a fault-schedule type
// in code is a finding. Only the session draws from the schedule; the hosts,
// the link model and the WAL take plain values.
//
// This file is a lint fixture, never compiled — the identifiers are fake.

bool Host::serve_ok(net::FaultStream* faults) const {  // expect: fault-scope
  return faults == nullptr || !faults->next_sp_error();
}

// Negative: prose may name the FaultInjector; only code counts.
std::optional<Bytes> Host::fetch(const std::string& url) const { return blobs_.get(url); }
