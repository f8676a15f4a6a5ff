// Fixture for the cowalias pass: types documented as copy-on-write
// must never have their container slots written in place or aliased to
// caller-owned buffers. Obj stands in for rados.Object, Reply for the
// replay-cached rados.OpReply, and store/entry for the PG slot map.
package cowalias

// Obj is the stored unit.
//
// Copy-on-write discipline: every mutation replaces the Data slice
// (and omap value slices) with a freshly allocated one; readers hold
// aliases of the old backing and must never observe writes.
type Obj struct {
	Name string
	Data []byte
	Omap map[string][]byte
	Tags map[string]string
}

// Reply carries operation results. Replies are retained verbatim by a
// replay cache, so the copy-on-write discipline extends to them.
type Reply struct {
	Result int
	Data   []byte
}

// Req is a client request: its buffers belong to the caller, who may
// reuse them once the request returns.
type Req struct {
	Data []byte
}

// TxnEntry is one write-set entry as a replica receives it. Val is
// copy-on-write: it aliases a slice the primary stored, which nobody
// writes in place, so installers share it.
type TxnEntry struct {
	Key string
	Val []byte
}

type entry struct {
	obj *Obj
}

type store struct {
	objects map[string]*entry
}

// entry returns the slot, creating it on first touch (the
// branch-created slot must still count as stored state in callers).
func (s *store) entry(name string) *entry {
	e, ok := s.objects[name]
	if !ok {
		e = &entry{obj: &Obj{Name: name, Omap: make(map[string][]byte)}}
		s.objects[name] = e
	}
	return e
}

// ---- findings ----

// scribble writes an element of a stored slice in place: a concurrent
// reader holding the alias sees the write.
func (s *store) scribble(name string) {
	e := s.entry(name)
	e.obj.Data[0] = 1 // want "element write"
}

// copyOver copies into the stored backing array.
func (s *store) copyOver(name string, buf []byte) {
	e := s.entry(name)
	copy(e.obj.Data, buf) // want "copy into"
}

// growInPlace appends into the stored slice's spare capacity.
func (s *store) growInPlace(name string, buf []byte) {
	e := s.entry(name)
	e.obj.Data = append(e.obj.Data, buf...) // want "append in place"
}

// putRaw stores the caller's buffer without a clone: the caller may
// reuse the backing array under later readers.
func (s *store) putRaw(name string, buf []byte) {
	e := s.entry(name)
	e.obj.Data = buf // want "caller-owned buffer stored into copy-on-write slot"
}

// putOmapRaw does the same through a map insert.
func (s *store) putOmapRaw(name, k string, v []byte) {
	e := s.entry(name)
	e.obj.Omap[k] = v // want "caller-owned buffer stored into copy-on-write slot"
}

// putRequest stores a client request's payload without a clone: adopting
// write-set values must not have made request buffers adoptable too.
func (s *store) putRequest(name string, req Req) {
	e := s.entry(name)
	e.obj.Data = req.Data // want "caller-owned buffer stored into copy-on-write slot"
}

// buildReply places a caller-owned buffer straight into a retained
// reply.
func (s *store) buildReply(buf []byte) Reply {
	return Reply{Data: buf} // want "caller-owned buffer stored into copy-on-write slot"
}

// stamp writes its argument in place; passing stored state to it is
// the same bug one hop removed.
func stamp(b []byte) {
	if len(b) > 0 {
		b[0] = 'x'
	}
}

func (s *store) stampStored(name string) {
	e := s.entry(name)
	stamp(e.obj.Data) // want "writes its argument in place"
}

// aliasThenMutate shows the witness chain: the alias is taken first,
// the mutation happens later through the local name.
func (s *store) aliasThenMutate(name string) {
	e := s.entry(name)
	buf := e.obj.Data
	buf[0] = 1 // want "element write"
}

// ---- clean: the recognized clone idioms ----

// putClone is the canonical idiom: append onto a nil slice allocates.
func (s *store) putClone(name string, buf []byte) {
	e := s.entry(name)
	e.obj.Data = append([]byte(nil), buf...)
}

// putMakeCopy is the other documented idiom: fresh make plus copy.
func (s *store) putMakeCopy(name string, buf []byte) {
	e := s.entry(name)
	fresh := make([]byte, len(buf))
	copy(fresh, buf)
	e.obj.Data = fresh
}

// growFresh reallocates before appending, as the real append op does.
func (s *store) growFresh(name string, buf []byte) {
	e := s.entry(name)
	grown := make([]byte, 0, len(e.obj.Data)+len(buf))
	grown = append(append(grown, e.obj.Data...), buf...)
	e.obj.Data = grown
}

// adoptTxn installs write-set entries by reference, as a replica does:
// their values are copy-on-write already, so sharing them is not
// aliasing a caller's buffer.
func (s *store) adoptTxn(name string, txn []TxnEntry) {
	e := s.entry(name)
	for i := range txn {
		e.obj.Omap[txn[i].Key] = txn[i].Val
	}
	e.obj.Data = txn[0].Val
}

// readReply aliases stored state into the reply: the zero-copy read
// path, legal because replies are themselves copy-on-write.
func (s *store) readReply(name string) Reply {
	e := s.entry(name)
	return Reply{Data: e.obj.Data}
}

// mutateFresh mutates a freshly allocated object before publishing it:
// exclusive ownership until the final store.
func (s *store) mutateFresh(name string) {
	work := &Obj{Data: make([]byte, 8), Omap: make(map[string][]byte)}
	work.Data[0] = 1
	work.Omap["k"] = []byte("v")
	e := s.entry(name)
	e.obj = work
}

// undo captures a stored alias and restores it later: rollback
// reinstalls old stored state, never a caller buffer.
func (s *store) undo(name string) func() {
	e := s.entry(name)
	old := e.obj.Data
	return func() { e.obj.Data = old }
}

// putTag stores a caller's string into a copy-on-write map: a string
// has no backing array the caller could write afterwards.
func (s *store) putTag(name, k, v string) {
	e := s.entry(name)
	e.obj.Tags[k] = v
}

// readOnly passes stored state to a callee that does not mutate it.
func digest(b []byte) int {
	n := 0
	for _, c := range b {
		n += int(c)
	}
	return n
}

func (s *store) readOnly(name string) int {
	e := s.entry(name)
	return digest(e.obj.Data)
}
