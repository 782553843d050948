package subsumption

import (
	"sync"

	"dlearn/internal/logic"
)

// predInterner maps predicate keys (see predKey) to dense uint32 IDs so the
// per-probe image computation of the search — prep.byPred lookups issued for
// every candidate literal — compares integers instead of hashing keys. The
// keys are comparable structs, so interning a literal's key composes no
// string. The interner is shared process-wide: prepared examples and
// compiled candidates from different engines agree on IDs, and the space of
// keys is bounded by the schema's predicates plus one key per repair-literal
// dependency, so the table stays small for the life of the process.
type predInterner struct {
	mu  sync.RWMutex
	ids map[predicateKey]uint32
}

var predKeys = predInterner{ids: make(map[predicateKey]uint32)}

// id interns a predicate key, assigning the next dense ID when it is new.
func (pi *predInterner) id(key predicateKey) uint32 {
	pi.mu.RLock()
	id, ok := pi.ids[key]
	pi.mu.RUnlock()
	if ok {
		return id
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if id, ok := pi.ids[key]; ok {
		return id
	}
	id = uint32(len(pi.ids))
	pi.ids[key] = id
	return id
}

// predID returns the interned predicate-key ID of a literal.
func predID(l logic.Literal) uint32 {
	return predKeys.id(predKey(l))
}
