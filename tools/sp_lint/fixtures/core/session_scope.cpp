// net-under-lock fixture (the filename carries "session", which scopes the
// rule in): SP/DH/network traffic while an exclusive sp::MutexLock is in
// scope is a finding — the serving core must never hold a small lock across
// a modeled network exchange. The registry reader/writer guards (SharedLock /
// UniqueLock) are exempt by design: refresh re-uploads under the registry
// writer lock on purpose.
//
// This file is a lint fixture, never compiled — the identifiers are fake.

void bad_net_under_keys_lock(Self& self) {
  {
    const sp::MutexLock guard(self.keys_mutex_);
    network_.transfer_ms(42);  // expect: net-under-lock
  }
}

void bad_sp_under_rng_lock() {
  const sp::MutexLock guard(rng_mutex_);
  (void)sp_.record(post_id);  // expect: net-under-lock
}

void bad_dh_under_lock_nested() {
  const sp::MutexLock guard(rng_mutex_);
  if (need_refresh) {
    dh_.store(blob);  // expect: net-under-lock
  }
}

// Negative: once the lock scope closes, the hosts are fair game.
void ok_after_scope() {
  {
    const sp::MutexLock guard(keys_mutex_);
    touch_keys();
  }
  network_.transfer_ms(42);
  dh_.store(blob);
}

// Negative: the registry writer path (UniqueLock) may talk to the hosts —
// refresh replaces records under the writer lock so readers never observe a
// half-swapped puzzle.
void ok_refresh_under_registry_lock() {
  const sp::UniqueLock registry_guard(puzzles_mutex_);
  sp_.replace_record(post_id, record);
  dh_.remove(old_url);
}

// Negative: readers under the registry SharedLock are exempt too.
void ok_access_under_registry_lock() {
  const sp::SharedLock registry_guard(puzzles_mutex_);
  (void)sp_.record(post_id);
}
