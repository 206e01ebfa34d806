// Package frame is the checksummed record framing shared by the on-disk
// formats of internal/simcache (one frame per cache entry) and
// internal/service (one frame per journal record): an 8-byte
// little-endian payload length, the payload's SHA-256, then the payload.
// File magics stay with the callers; a frame carries no version of its
// own.
package frame

import (
	"crypto/sha256"
	"encoding/binary"
)

// HeaderSize is the framing overhead per record: length + checksum.
const HeaderSize = 8 + sha256.Size

// Append appends the framing of payload to buf.
func Append(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// Next parses the frame at the head of b, returning its payload and the
// bytes after it. ok is false when b is too short for the header or the
// declared payload, or when the checksum does not match — a torn or
// corrupt record, never a panic.
func Next(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < HeaderSize {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(len(b)-HeaderSize) {
		return nil, nil, false
	}
	end := HeaderSize + int(n)
	payload = b[HeaderSize:end]
	if sha256.Sum256(payload) != [sha256.Size]byte(b[8:HeaderSize]) {
		return nil, nil, false
	}
	return payload, b[end:], true
}
