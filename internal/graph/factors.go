package graph

import (
	"encoding/binary"
	"maps"
	"slices"
	"sort"
)

// factorSet is one interned list of fault-factor names. Sets are
// immutable once made, so clones of a graph share them.
type factorSet struct {
	// list is what Edge.Factors reports: the names as SetEdge was given
	// them, or the sorted, de-duplicated union for a contracted edge.
	list []string
	// words is the set as a bitset over the table's factor ids, without
	// trailing zero words.
	words []uint64
	// canon is the id of the set with the same names, sorted and
	// de-duplicated (a canonical set is its own canon).
	canon int32
}

// factorTable interns a graph's factor names and factor lists. Set 0 is
// the empty set. Edges store set ids, so Contract unions factor sets with
// a few word ORs and a map lookup instead of building string sets.
type factorTable struct {
	names  []string         // factor id -> name
	ids    map[string]int   // name -> factor id
	sets   []factorSet      // set id -> set; sets[0] is empty
	byList map[string]int32 // encoded list -> set id
	byBits map[string]int32 // encoded words -> canonical set id
	// key and words are scratch for lookups; only mutations use them.
	key   []byte
	words []uint64
}

func newFactorTable() factorTable {
	return factorTable{sets: []factorSet{{}}}
}

// clone shares the immutable names and sets and copies the indexes.
func (t *factorTable) clone() factorTable {
	return factorTable{
		names:  t.names[:len(t.names):len(t.names)],
		ids:    maps.Clone(t.ids),
		sets:   t.sets[:len(t.sets):len(t.sets)],
		byList: maps.Clone(t.byList),
		byBits: maps.Clone(t.byBits),
	}
}

// list returns set id's names, nil for the empty set. The slice is shared
// by every edge of the set and capped, so appending to it copies.
func (t *factorTable) list(id int32) []string {
	l := t.sets[id].list
	return l[:len(l):len(l)]
}

// intern returns the set id of a factor list as SetEdge was given it.
func (t *factorTable) intern(list []string) int32 {
	if len(list) == 0 {
		return 0
	}
	t.key = appendListKey(t.key[:0], list)
	if id, ok := t.byList[string(t.key)]; ok {
		return id
	}
	t.words = t.words[:0]
	for _, name := range list {
		f, ok := t.ids[name]
		if !ok {
			if t.ids == nil {
				t.ids = map[string]int{}
			}
			f = len(t.names)
			t.names = append(t.names, name)
			t.ids[name] = f
		}
		for len(t.words) <= f/64 {
			t.words = append(t.words, 0)
		}
		t.words[f/64] |= 1 << (f % 64)
	}
	id := t.canonical(t.words)
	if !slices.IsSorted(list) || len(t.sets[id].list) != len(list) {
		id = t.add(factorSet{list: slices.Clone(list), words: t.sets[id].words, canon: id})
	}
	t.key = appendListKey(t.key[:0], list)
	if t.byList == nil {
		t.byList = map[string]int32{}
	}
	t.byList[string(t.key)] = id
	return id
}

// union returns the canonical set holding the names of sets a and b.
func (t *factorTable) union(a, b int32) int32 {
	a, b = t.sets[a].canon, t.sets[b].canon
	switch {
	case a == b || b == 0:
		return a
	case a == 0:
		return b
	}
	wa, wb := t.sets[a].words, t.sets[b].words
	if len(wa) < len(wb) {
		wa, wb = wb, wa
	}
	t.words = append(t.words[:0], wa...)
	for i, w := range wb {
		t.words[i] |= w
	}
	return t.canonical(t.words)
}

// canonical returns the canonical set of a bitset, making it on first use.
func (t *factorTable) canonical(words []uint64) int32 {
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	if len(words) == 0 {
		return 0
	}
	key := t.key[:0]
	for _, w := range words {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	t.key = key
	if id, ok := t.byBits[string(key)]; ok {
		return id
	}
	var list []string
	for i, w := range words {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				list = append(list, t.names[i*64+b])
			}
		}
	}
	sort.Strings(list)
	id := t.add(factorSet{list: list, words: slices.Clone(words), canon: int32(len(t.sets))})
	if t.byBits == nil {
		t.byBits = map[string]int32{}
	}
	t.byBits[string(key)] = id
	t.key = appendListKey(t.key[:0], list)
	if t.byList == nil {
		t.byList = map[string]int32{}
	}
	t.byList[string(t.key)] = id
	return id
}

func (t *factorTable) add(s factorSet) int32 {
	t.sets = append(t.sets, s)
	return int32(len(t.sets) - 1)
}

// appendListKey encodes a list unambiguously: each name prefixed by its
// length.
func appendListKey(key []byte, list []string) []byte {
	for _, s := range list {
		key = binary.AppendUvarint(key, uint64(len(s)))
		key = append(key, s...)
	}
	return key
}
