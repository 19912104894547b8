#include "codec/records.hpp"

namespace sp::codec {

Bytes encode_envelope(const Envelope& env) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(env.op));
  w.u8(env.space);
  w.u64(env.seq);
  w.str(env.id);
  w.blob(env.value);
  const Bytes payload = w.take();
  return frame(static_cast<std::uint8_t>(RecordType::kEnvelope), payload);
}

Envelope decode_envelope_payload(const Frame& f) {
  if (f.version != kWireVersion) throw CodecError("envelope: unsupported version");
  if (f.type != static_cast<std::uint8_t>(RecordType::kEnvelope)) {
    throw CodecError("envelope: wrong record type");
  }
  Reader r(f.payload);
  Envelope env;
  const std::uint8_t op = r.u8();
  // 3 (kObserve) is retired but stays accepted: see Envelope::Op.
  if (op < 1 || op > 3) throw CodecError("envelope: bad op");
  env.op = static_cast<Envelope::Op>(op);
  env.space = r.u8();
  env.seq = r.u64();
  env.id = r.str();
  env.value = r.blob();
  r.expect_done("envelope");
  return env;
}

Envelope decode_envelope(std::span<const std::uint8_t> data) {
  const Frame f = unframe(data);
  return decode_envelope_payload(f);
}

}  // namespace sp::codec
