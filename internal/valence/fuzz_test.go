package valence

import (
	"bytes"
	"testing"
)

// fuzzSeedEncodings harvests real interned state encodings from a small
// explored graph, so the fuzzer's corpus starts from the byte shapes the
// arena actually stores (component encodings with \x1e separators) rather
// than from synthetic data.
func fuzzSeedEncodings(f *testing.F) [][]byte {
	f.Helper()
	e, err := New(Config{N: 2, Family: "FD-Ω", Algo: "ct", TD: OmegaTD(2, 2, nil)})
	if err != nil {
		f.Fatal(err)
	}
	if err := e.Explore(); err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for id := 0; id < e.NumNodes() && id < 16; id++ {
		out = append(out, e.NodeEncoding(NodeID(id)))
	}
	return out
}

// FuzzStateInterning drives the parallel explorer's interning machinery on
// arbitrary byte strings:
//
//   - shardArena chunk-stability: every slice put returns must still hold
//     exactly the bytes that were put after arbitrarily many later puts —
//     including puts that roll the arena over to a fresh, larger chunk and
//     oversized puts that take a chunk of their own.  (The arena exists
//     because append-grow would reallocate under concurrent readers; a slice
//     that mutates after return is the resulting memo corruption.)
//   - stateHash determinism and input-purity: hashing the same (encoding,
//     fd) twice — once from the caller's buffer, once from the interned copy
//     — must agree, and hashing must not mutate the input.
//   - fd mixing: the same encoding under different fd indexes must hash
//     differently (the memo key is the pair; a collision here would be legal
//     but an *equality* means fd is not mixed in at all).
func FuzzStateInterning(f *testing.F) {
	for _, enc := range fuzzSeedEncodings(f) {
		f.Add(enc, 0, uint8(3))
	}
	f.Add([]byte{}, 0, uint8(1))
	f.Add([]byte("\x1e\x1e"), 71, uint8(5))
	f.Add(bytes.Repeat([]byte{0xa5}, 4096), 3, uint8(9))
	// Sizes at the chunk-growth boundaries: one byte under, exactly and one
	// byte over the first chunk (the last takes a chunk of its own), and
	// the second chunk's size.
	for _, n := range []int{arenaMinChunk - 1, arenaMinChunk, arenaMinChunk + 1, 2 * arenaMinChunk} {
		f.Add(bytes.Repeat([]byte{0x3c}, n), n, uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, fd int, rounds uint8) {
		before := append([]byte(nil), data...)
		h1 := stateHash(data, fd)
		if !bytes.Equal(data, before) {
			t.Fatal("stateHash mutated its input")
		}
		if h2 := stateHash(data, fd); h2 != h1 {
			t.Fatalf("stateHash not deterministic: %#x vs %#x", h1, h2)
		}
		// Injective fd mixing: the xor-in is multiplication by an odd
		// constant (injective mod 2^64) and the avalanche is bijective, so
		// distinct fd values must produce distinct hashes for the same bytes.
		if stateHash(data, fd) == stateHash(data, fd+1) {
			t.Fatalf("fd not mixed into stateHash: fd=%d and fd=%d collide on %q", fd, fd+1, data)
		}

		var arena shardArena
		type put struct {
			want   []byte
			stored []byte
		}
		var puts []put
		record := func(b []byte) {
			got := arena.put(b)
			if !bytes.Equal(got, b) {
				t.Fatalf("put returned %q for %q", got, b)
			}
			puts = append(puts, put{want: append([]byte(nil), b...), stored: got})
		}
		record(data)
		// Subsequent puts of varying sizes, including ones big enough to
		// force chunk rollover (and, for large data, the oversized path).
		n := int(rounds%16) + 2
		for i := 0; i < n; i++ {
			record(bytes.Repeat(data, i%3+1))
			record([]byte{byte(i), 0x1e, byte(fd)})
		}
		// As large as the largest chunk: always a fresh chunk, and its own
		// unless the arena has grown to the cap.
		record(bytes.Repeat([]byte{0x5a}, arenaMaxChunk))
		for i, p := range puts {
			if !bytes.Equal(p.stored, p.want) {
				t.Fatalf("put %d corrupted after later puts: got %q, want %q", i, p.stored, p.want)
			}
			if h := stateHash(p.stored, fd); bytes.Equal(p.want, data) && h != h1 {
				t.Fatalf("interned copy of %q hashes %#x, original %#x", data, h, h1)
			}
		}
	})
}

// TestShardArenaChunkPolicy pins the arena's chunk policy deterministically:
// the first chunk is arenaMinChunk bytes and each later one doubles until
// arenaMaxChunk, after which chunks stay at the cap; a put larger than the
// next chunk gets a chunk of its own and leaves the current one open; every
// returned slice is capacity-clipped (appending to it cannot reach a
// neighbour) and keeps its bytes through all later puts.
func TestShardArenaChunkPolicy(t *testing.T) {
	var a shardArena
	type put struct {
		want, got []byte
	}
	var puts []put
	record := func(b []byte) []byte {
		t.Helper()
		got := a.put(b)
		if !bytes.Equal(got, b) || cap(got) != len(got) {
			t.Fatalf("put of %d bytes returned %d bytes, cap %d", len(b), len(got), cap(got))
		}
		puts = append(puts, put{want: append([]byte(nil), b...), got: got})
		return got
	}

	// Fill with 256-byte puts and record each chunk's size as it opens
	// (a put lands at offset 0 exactly when it opened a chunk).
	var chunks []int
	for i := 0; len(chunks) < 14; i++ {
		record(bytes.Repeat([]byte{byte(i)}, 256))
		if len(a.cur) == 256 {
			chunks = append(chunks, cap(a.cur))
		}
	}
	for i, c := range chunks {
		want := arenaMinChunk << i
		if want > arenaMaxChunk {
			want = arenaMaxChunk
		}
		if c != want {
			t.Fatalf("chunk %d: %d bytes, want %d (chunks so far %v)", i, c, want, chunks[:i+1])
		}
	}

	// An oversized put: a chunk of its own, the open chunk untouched.
	a = shardArena{}
	head := record([]byte("head"))
	cur, used := cap(a.cur), len(a.cur)
	big := record(bytes.Repeat([]byte{0xee}, arenaMinChunk*2+1))
	if cap(a.cur) != cur || len(a.cur) != used {
		t.Fatalf("oversized put moved the open chunk: cap %d len %d, was cap %d len %d",
			cap(a.cur), len(a.cur), cur, used)
	}
	if &big[0] == &a.cur[:cap(a.cur)][used] {
		t.Fatal("oversized put landed in the open chunk")
	}
	tail := record([]byte("tail"))
	if &tail[0] != &a.cur[used] {
		t.Fatal("the put after an oversized one did not continue the open chunk")
	}
	// Appending to a returned slice must reallocate, not overwrite "tail".
	_ = append(head, 'X')

	for i, p := range puts {
		if !bytes.Equal(p.got, p.want) {
			t.Fatalf("put %d changed after later puts: got %q, want %q", i, p.got, p.want)
		}
	}
}
