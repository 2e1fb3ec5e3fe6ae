package delegate

import "testing"

func ck(blk int64) blockKey { return blockKey{name: "f", blk: blk} }

func TestBlockCacheLRU(t *testing.T) {
	c := newBlockCache(2)
	if _, ok := c.get(ck(0)); ok {
		t.Fatal("empty cache hit")
	}
	b0, b1, b2 := []byte{0}, []byte{1}, []byte{2}
	if ev := c.put(ck(0), b0, 0); ev != nil {
		t.Fatal("insert under capacity evicted")
	}
	if ev := c.put(ck(1), b1, 0); ev != nil {
		t.Fatal("insert at capacity evicted")
	}
	// Touch 0 so 1 becomes the LRU victim.
	if got, ok := c.get(ck(0)); !ok || &got.buf[0] != &b0[0] {
		t.Fatal("get(0) missed or returned wrong buffer")
	}
	if ev := c.put(ck(2), b2, 0); ev == nil || &ev[0] != &b1[0] {
		t.Fatalf("expected eviction of LRU buffer 1, got %v", ev)
	}
	if _, ok := c.get(ck(1)); ok {
		t.Fatal("evicted key still resident")
	}
	for _, blk := range []int64{0, 2} {
		if _, ok := c.get(ck(blk)); !ok {
			t.Fatalf("block %d should be resident", blk)
		}
	}
	if c.order.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.order.Len())
	}
}

// TestBlockCachePeekAndInvalidate: peek reads an entry without promoting it,
// and invalidate removes one and hands back its buffer exactly once.
func TestBlockCachePeekAndInvalidate(t *testing.T) {
	c := newBlockCache(2)
	b0, b1, b2 := []byte{0}, []byte{1}, []byte{2}
	c.put(ck(0), b0, 0)
	c.put(ck(1), b1, 0)
	c.get(ck(1)) // 0 is LRU
	// Peeking the LRU entry must not promote it: the next insert evicts it.
	if _, ok := c.peek(ck(0)); !ok {
		t.Fatal("peek missed")
	}
	if ev := c.put(ck(2), b2, 0); ev == nil || &ev[0] != &b0[0] {
		t.Fatal("peek promoted the LRU entry")
	}
	buf, ok := c.invalidate(ck(1))
	if !ok || &buf[0] != &b1[0] {
		t.Fatal("invalidate returned wrong buffer")
	}
	if _, ok := c.get(ck(1)); ok {
		t.Fatal("invalidated key still resident")
	}
	if _, ok := c.invalidate(ck(1)); ok {
		t.Fatal("double invalidate succeeded")
	}
}
