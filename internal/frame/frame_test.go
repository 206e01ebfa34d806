package frame

import (
	"bytes"
	"testing"
)

// FuzzFrame checks the framing contract on arbitrary payloads: a framed
// payload round-trips, every truncation and every single-byte flip of a
// frame is rejected, and no input — framed or raw — makes Next panic.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a"))
	f.Add([]byte(`{"op":"submit","id":"j000001","seq":1}`))
	f.Add(Append(nil, []byte("already framed")))
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+3))

	f.Fuzz(func(t *testing.T, p []byte) {
		// Raw input: any accepted frame re-frames to the bytes consumed.
		if payload, rest, ok := Next(p); ok {
			if got := Append(nil, payload); !bytes.Equal(got, p[:len(p)-len(rest)]) {
				t.Fatalf("accepted frame does not re-frame to its own bytes")
			}
		}
		if len(p) > 256 {
			p = p[:256] // the checks below are quadratic in the frame size
		}

		framed := Append(nil, p)
		payload, rest, ok := Next(framed)
		if !ok || !bytes.Equal(payload, p) || len(rest) != 0 {
			t.Fatalf("round trip failed: ok=%v payload=%q rest=%d", ok, payload, len(rest))
		}
		for n := 0; n < len(framed); n++ {
			if _, _, ok := Next(framed[:n]); ok {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(framed))
			}
		}
		flipped := make([]byte, len(framed))
		for i := range framed {
			copy(flipped, framed)
			flipped[i] ^= 0x01
			if _, _, ok := Next(flipped); ok {
				t.Fatalf("flip of byte %d of %d accepted", i, len(framed))
			}
		}
	})
}
