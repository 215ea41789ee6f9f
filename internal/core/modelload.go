package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
)

// Load deserializes a model set written by Save and validates it, which
// compiles it: Generate and NewSource on it compile nothing again. Only
// whitespace may follow the model.
//
// It reads the JSON straight into the model structs through a 64 KiB
// window onto r, never holding the whole document, and accepts nothing
// encoding/json would refuse: every model it returns is the one a
// json.Decoder builds from the same bytes (TestLoadMatchesEncodingJSON and
// FuzzLoadModel hold it to that). It is stricter in one respect: a key
// the model structs do not have, a key differing from one only in case,
// and a repeated key are errors, where encoding/json would skip, fold or
// merge them.
func Load(r io.Reader) (*ModelSet, error) {
	ms, err := decodeModel(r)
	if err != nil {
		return nil, err
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	return ms, nil
}

// decodeModel is Load before Validate: one model document, then the end
// of r.
func decodeModel(r io.Reader) (*ModelSet, error) {
	d := modelDecoder{r: r, buf: make([]byte, 64<<10)}
	ms := new(ModelSet)
	d.modelSet(ms)
	if d.err == nil {
		d.eof()
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding model set: %w", d.err)
	}
	return ms, nil
}

// modelDecoder reads the model structs' JSON from a source, one method
// per struct as modelEncoder writes it. The first error stops it: d.err
// is set, every loop over an object's members or an array's elements
// ends, and Load returns the error.
type modelDecoder struct {
	r        io.Reader
	buf      []byte // buf[pos:end] is read from r and not yet consumed
	pos, end int
	off      int64 // the document offset of buf[0]
	rerr     error // r's error (io.EOF at its end) once buf holds all r gave
	err      error

	// prev is the float token read last and prevVal its value: a run of
	// equal values — most of a Kaplan–Meier table — parses once.
	prev    []byte
	prevVal float64
	num     numDigits // the digits of the number scanned last

	// One scratch slice per element type: an array fills its type's
	// scratch, then is cloned at its exact length. No model struct
	// contains an array of its own type, so a scratch is never in use
	// twice at once.
	floatBuf   []float64
	intBuf     []int
	devBuf     []*DeviceModel
	personaBuf []Persona
	hourBuf    []HourModel
	clusterBuf []ClusterModel
	stateBuf   []StateParam
	transBuf   []TransitionParam
	freeBuf    []FreeProcess
	catBuf     []FirstCat
}

// more reads from r behind buf[pos:end], first moving the unconsumed
// bytes to the front of the buffer; a single token longer than the
// buffer doubles it. It reports whether any byte arrived.
func (d *modelDecoder) more() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		d.off += int64(d.pos)
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	if d.end == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	for empty := 0; empty < 100; empty++ {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

// peek skips whitespace and returns the next byte without consuming it.
// At the end of the source it returns 0 with d.pos == d.end.
func (d *modelDecoder) peek() byte {
	for {
		for d.pos < d.end {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return c
			}
		}
		if !d.more() {
			return 0
		}
	}
}

// eof demands the source end after the model, whitespace aside.
func (d *modelDecoder) eof() {
	d.peek()
	switch {
	case d.pos < d.end:
		d.err = errors.New("trailing data")
	case d.rerr != io.EOF:
		d.err = d.rerr
	}
}

// unexpected records that the next byte, or the end of the source, is
// not what the document needs there.
func (d *modelDecoder) unexpected(want string) {
	switch {
	case d.err != nil:
	case d.pos < d.end:
		d.err = fmt.Errorf("invalid character %q at byte %d, want %s", d.buf[d.pos], d.off+int64(d.pos), want)
	case d.rerr == io.EOF:
		d.err = io.ErrUnexpectedEOF
	default:
		d.err = d.rerr
	}
}

// fail records an error about the token that starts at document offset at.
func (d *modelDecoder) fail(at int64, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", fmt.Sprintf(format, args...), at)
	}
}

// null consumes a null and reports whether there was one. encoding/json
// reads null into a slice or pointer as nil and into anything else as no
// change, which for Load's freshly zeroed structs is the same: the field
// keeps its zero value.
func (d *modelDecoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	for d.end-d.pos < len("null") && d.more() {
	}
	if d.end-d.pos < len("null") || string(d.buf[d.pos:d.pos+len("null")]) != "null" {
		d.unexpected("null")
		return false
	}
	d.pos += len("null")
	return true
}

// members is the state of one JSON object being read. The member loop is
//
//	for o := d.object(keys); d.member(&o); { switch o.key { … } }
type members struct {
	keys []string // the struct's JSON names
	key  string   // the current member's name, from keys
	seen uint32   // bit i: keys[i] was read
	n    int      // members read; -1 when the object was null
}

// object opens an object whose members are named by keys, or reads a null.
func (d *modelDecoder) object(keys []string) members {
	if d.null() {
		return members{n: -1}
	}
	if d.peek() != '{' {
		d.unexpected("{")
		return members{n: -1}
	}
	d.pos++
	return members{keys: keys}
}

// member reads up to the next member's value, leaving its name in o.key,
// or consumes the object's closing brace and reports false. A name not in
// o.keys — one that differs only in case included — and a name read before
// are errors.
func (d *modelDecoder) member(o *members) bool {
	if d.err != nil || o.n < 0 {
		return false
	}
	c := d.peek()
	if o.n > 0 {
		switch c {
		case '}':
			d.pos++
			return false
		case ',':
			d.pos++
			c = d.peek()
		default:
			d.unexpected(", or }")
			return false
		}
	} else if c == '}' {
		d.pos++
		return false
	}
	if c != '"' {
		d.unexpected("an object key")
		return false
	}
	at := d.off + int64(d.pos)
	raw, plain := d.stringToken()
	if d.err != nil {
		return false
	}
	name := raw[1 : len(raw)-1]
	if !plain {
		name = []byte(d.unquote(raw, at))
	}
	o.n++
	i := 0
	for i < len(o.keys) && o.keys[i] != string(name) {
		i++
	}
	if i == len(o.keys) {
		d.badKey(o.keys, string(name), at)
		return false
	}
	if o.seen&(1<<i) != 0 {
		d.fail(at, "duplicate key %q", o.keys[i])
		return false
	}
	o.seen |= 1 << i
	o.key = o.keys[i]
	if d.peek() != ':' {
		d.unexpected(":")
		return false
	}
	d.pos++
	return true
}

// badKey records that name is not one of keys.
func (d *modelDecoder) badKey(keys []string, name string, at int64) {
	for _, k := range keys {
		if strings.EqualFold(k, name) {
			d.fail(at, "key %q differs from %q only in case", name, k)
			return
		}
	}
	d.fail(at, "unknown key %q", name)
}

// next moves to the next element of the array in which n elements have
// been read, or consumes its closing bracket and reports false.
func (d *modelDecoder) next(n int) bool {
	if d.err != nil {
		return false
	}
	switch c := d.peek(); {
	case c == ']':
		d.pos++
		return false
	case n == 0:
		return true
	case c == ',':
		d.pos++
		return true
	default:
		d.unexpected(", or ]")
		return false
	}
}

// open consumes the opening bracket of an array, or a null; it reports
// whether there is an array to read.
func (d *modelDecoder) open() bool {
	if d.null() {
		return false
	}
	if d.peek() != '[' {
		d.unexpected("[")
		return false
	}
	d.pos++
	return true
}

// clone copies a filled scratch slice out at its exact length: an empty
// array is an empty slice, as encoding/json makes it, never nil.
func clone[T any](xs []T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// decodeArray reads a JSON array of elem's input through the element type's
// scratch slice; null is a nil slice.
func decodeArray[T any](d *modelDecoder, scratch *[]T, elem func(*modelDecoder, *T)) []T {
	if !d.open() {
		return nil
	}
	xs := (*scratch)[:0]
	var zero T
	for d.next(len(xs)) {
		xs = append(xs, zero)
		elem(d, &xs[len(xs)-1])
	}
	*scratch = xs
	if d.err != nil {
		return nil
	}
	return clone(xs)
}

// stringToken consumes the string at d.pos and returns it with its
// quotes. plain reports that it holds only printable ASCII and no escape,
// so its bytes between the quotes are its value.
func (d *modelDecoder) stringToken() (raw []byte, plain bool) {
	plain = true
	escaped := false
	for i := d.pos + 1; ; i++ {
		if i == d.end {
			k := i - d.pos
			if !d.more() {
				d.pos = d.end
				d.unexpected("the end of a string")
				return nil, false
			}
			i = d.pos + k
		}
		switch c := d.buf[i]; {
		case escaped:
			escaped = false
		case c == '\\':
			escaped, plain = true, false
		case c == '"':
			raw = d.buf[d.pos : i+1]
			d.pos = i + 1
			return raw, plain
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
}

// unquote decodes a string token with escapes or non-ASCII bytes the way
// modelEncoder.str encodes one: through encoding/json.
func (d *modelDecoder) unquote(raw []byte, at int64) string {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		d.fail(at, "invalid string %s", raw)
	}
	return s
}

// str reads a string field.
func (d *modelDecoder) str() string {
	if d.null() {
		return ""
	}
	if d.peek() != '"' {
		d.unexpected("a string")
		return ""
	}
	at := d.off + int64(d.pos)
	raw, plain := d.stringToken()
	if d.err != nil {
		return ""
	}
	if !plain {
		return d.unquote(raw, at)
	}
	switch s := raw[1 : len(raw)-1]; string(s) {
	case SojournTable: // the sojourn kinds, one per table: no copy each
		return SojournTable
	case SojournExp:
		return SojournExp
	case SojournConst:
		return SojournConst
	default:
		return string(s)
	}
}

// numByte marks the bytes a JSON number is made of.
var numByte = [256]bool{'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true,
	'7': true, '8': true, '9': true, '-': true, '+': true, '.': true, 'e': true, 'E': true}

// lookahead is the span a number is scanned in without a refill check:
// a longer number — none that Save writes — takes the slow path.
const lookahead = 64

// number consumes the number at d.pos, checked against JSON's grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), and returns its bytes,
// valid until the next read, with its digits in d.num; nil after an error.
// Null reads as nil too, with d.err unset.
//
//cplint:hotpath one call per number in the model file that is not its predecessor's repeat
func (d *modelDecoder) number() []byte {
	if d.null() || d.err != nil {
		return nil
	}
	if d.end-d.pos < lookahead {
		d.more()
	}
	b := d.buf[d.pos:d.end]
	n, ok := d.num.scan(b)
	if n == len(b) && d.rerr == nil {
		b, n, ok = d.longNumber()
	}
	if !ok || n < len(b) && numByte[b[n]] {
		d.badNumber()
		return nil
	}
	d.pos += n
	return b[:n]
}

// longNumber reads the rest of a number that runs past the lookahead —
// the whole run of number bytes — and scans it.
func (d *modelDecoder) longNumber() (b []byte, n int, ok bool) {
	i := d.pos
	for {
		for i < d.end && numByte[d.buf[i]] {
			i++
		}
		if i < d.end {
			break
		}
		k := i - d.pos
		more := d.more()
		i = d.pos + k
		if !more {
			break
		}
	}
	b = d.buf[d.pos:i]
	n, ok = d.num.scan(b)
	return b, n, ok && n == len(b)
}

// numDigits is what scanning a number learns of its value besides its
// length: ±mant × 10^exp, exactly unless truncated.
type numDigits struct {
	mant      uint64
	exp       int
	neg       bool
	truncated bool // more than 19 digits: mant wrapped
}

// scan reads the longest prefix of b that is a JSON number, or up to
// where one goes wrong, and returns its length and whether it is one.
func (s *numDigits) scan(b []byte) (int, bool) {
	*s = numDigits{}
	i := 0
	if i < len(b) && b[i] == '-' {
		s.neg = true
		i++
	}
	start := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			s.mant = s.mant*10 + uint64(b[i]-'0')
		}
	default:
		return i, false
	}
	digits := i - start
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			s.mant = s.mant*10 + uint64(b[i]-'0')
		}
		if i == j {
			return i, false
		}
		digits += i - j
		s.exp = j - i
	}
	s.truncated = digits > 19
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		j, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 100_000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return i, false
		}
		s.exp += sign * e
	}
	return i, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exact returns the number's value when one IEEE operation on two exact
// operands gives it — a mantissa below 2^53 times or over a power of ten
// up to 1e22, correctly rounded, so strconv.ParseFloat's value (the fast
// path strconv itself takes first).
func (s *numDigits) exact() (float64, bool) {
	if s.truncated || s.mant >= 1<<53 || s.exp < -22 || s.exp > 22 {
		return 0, false
	}
	x := float64(s.mant)
	if s.exp < 0 {
		x /= pow10[-s.exp]
	} else {
		x *= pow10[s.exp]
	}
	if s.neg {
		x = -x
	}
	return x, true
}

// badNumber records that the bytes at d.pos are no JSON number.
func (d *modelDecoder) badNumber() {
	i := d.pos
	for i < d.end && numByte[d.buf[i]] {
		i++
	}
	if i == d.pos {
		d.unexpected("a number")
		return
	}
	d.fail(d.off+int64(d.pos), "invalid number %q", d.buf[d.pos:i])
}

// outOfRange records that the number tok does not fit its field's type.
func (d *modelDecoder) outOfRange(tok []byte, into string) {
	d.fail(d.off+int64(d.pos)-int64(len(tok)), "number %s does not fit %s", tok, into)
}

// float reads a float64 under encoding/json's rule: strconv.ParseFloat of
// the token, out-of-range magnitudes refused. A token with the previous
// float token's bytes has its value, found without a scan.
//
//cplint:hotpath one call per float in the model file
func (d *modelDecoder) float() float64 {
	if d.peek() != 'n' && d.end-d.pos < lookahead {
		d.more()
	}
	if b, n := d.buf[d.pos:d.end], len(d.prev); n > 0 && n < len(b) && !numByte[b[n]] && bytes.Equal(b[:n], d.prev) {
		d.pos += n
		return d.prevVal
	}
	tok := d.number()
	if tok == nil {
		return 0
	}
	x, ok := d.num.exact()
	if !ok {
		var err error
		if x, err = strconv.ParseFloat(string(tok), 64); err != nil {
			d.outOfRange(tok, "float64")
			return 0
		}
	}
	d.prev = append(d.prev[:0], tok...)
	d.prevVal = x
	return x
}

// int reads an int under encoding/json's rule: strconv.ParseInt of the
// token, so a fraction, an exponent or an overflow is refused.
func (d *modelDecoder) int() int {
	tok := d.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.outOfRange(tok, "int")
		return 0
	}
	return int(n)
}

// uint8 reads a cp.EventType or sm.State: strconv.ParseUint of the token,
// refused above 255.
func (d *modelDecoder) uint8(into string) uint8 {
	tok := d.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 8)
	if err != nil {
		d.outOfRange(tok, into)
		return 0
	}
	return uint8(n)
}

// floats reads a quantile grid or weight list.
func (d *modelDecoder) floats() []float64 {
	if !d.open() {
		return nil
	}
	xs := d.floatBuf[:0]
	for d.next(len(xs)) {
		xs = append(xs, d.float())
	}
	d.floatBuf = xs
	if d.err != nil {
		return nil
	}
	return clone(xs)
}

var (
	modelSetKeys   = []string{"machine", "method", "devices"}
	deviceKeys     = []string{"personas", "hours", "global", "share", "trainUEs"}
	personaKeys    = []string{"cluster", "weight"}
	hourKeys       = []string{"clusters", "aggregate", "weights"}
	clusterKeys    = []string{"top", "bottom", "free", "first", "numUEs"}
	firstKeys      = []string{"pNone", "cats", "offset"}
	stateKeys      = []string{"out", "pExit", "sojourn"}
	transitionKeys = []string{"event", "p", "sojourn"}
	freeKeys       = []string{"event", "inter"}
	firstCatKeys   = []string{"event", "state", "p"}
	sojournKeys    = []string{"kind", "q", "lambda", "value"}
)

func (d *modelDecoder) modelSet(ms *ModelSet) {
	for o := d.object(modelSetKeys); d.member(&o); {
		switch o.key {
		case "machine":
			ms.MachineName = d.str()
		case "method":
			ms.Method = d.str()
		case "devices":
			ms.Devices = decodeArray(d, &d.devBuf, (*modelDecoder).device)
		}
	}
}

func (d *modelDecoder) device(p **DeviceModel) {
	if d.null() {
		return
	}
	dm := new(DeviceModel)
	*p = dm
	for o := d.object(deviceKeys); d.member(&o); {
		switch o.key {
		case "personas":
			dm.Personas = decodeArray(d, &d.personaBuf, (*modelDecoder).persona)
		case "hours":
			dm.Hours = decodeArray(d, &d.hourBuf, (*modelDecoder).hour)
		case "global":
			dm.Global = d.clusterPtr()
		case "share":
			dm.Share = d.float()
		case "trainUEs":
			dm.TrainUEs = d.int()
		}
	}
}

func (d *modelDecoder) persona(p *Persona) {
	for o := d.object(personaKeys); d.member(&o); {
		switch o.key {
		case "cluster":
			p.Cluster = decodeArray(d, &d.intBuf, func(d *modelDecoder, c *int) { *c = d.int() })
		case "weight":
			p.Weight = d.float()
		}
	}
}

func (d *modelDecoder) hour(hm *HourModel) {
	for o := d.object(hourKeys); d.member(&o); {
		switch o.key {
		case "clusters":
			hm.Clusters = decodeArray(d, &d.clusterBuf, (*modelDecoder).cluster)
		case "aggregate":
			hm.Aggregate = d.clusterPtr()
		case "weights":
			hm.Weights = d.floats()
		}
	}
}

// clusterPtr reads an aggregate or global model: null is nil.
func (d *modelDecoder) clusterPtr() *ClusterModel {
	if d.null() {
		return nil
	}
	cm := new(ClusterModel)
	d.cluster(cm)
	return cm
}

func (d *modelDecoder) cluster(cm *ClusterModel) {
	for o := d.object(clusterKeys); d.member(&o); {
		switch o.key {
		case "top":
			cm.Top = decodeArray(d, &d.stateBuf, (*modelDecoder).state)
		case "bottom":
			cm.Bottom = decodeArray(d, &d.stateBuf, (*modelDecoder).state)
		case "free":
			cm.Free = decodeArray(d, &d.freeBuf, (*modelDecoder).free)
		case "first":
			d.first(&cm.First)
		case "numUEs":
			cm.NumUEs = d.int()
		}
	}
}

func (d *modelDecoder) first(f *FirstEventModel) {
	for o := d.object(firstKeys); d.member(&o); {
		switch o.key {
		case "pNone":
			f.PNone = d.float()
		case "cats":
			f.Cats = decodeArray(d, &d.catBuf, (*modelDecoder).firstCat)
		case "offset":
			d.sojourn(&f.Offset)
		}
	}
}

func (d *modelDecoder) state(sp *StateParam) {
	for o := d.object(stateKeys); d.member(&o); {
		switch o.key {
		case "out":
			sp.Out = decodeArray(d, &d.transBuf, (*modelDecoder).transition)
		case "pExit":
			sp.PExit = d.float()
		case "sojourn":
			if !d.null() {
				sp.Sojourn = new(SojournModel)
				d.sojourn(sp.Sojourn)
			}
		}
	}
}

func (d *modelDecoder) transition(tp *TransitionParam) {
	for o := d.object(transitionKeys); d.member(&o); {
		switch o.key {
		case "event":
			tp.Event = cp.EventType(d.uint8("cp.EventType"))
		case "p":
			tp.P = d.float()
		case "sojourn":
			d.sojourn(&tp.Sojourn)
		}
	}
}

func (d *modelDecoder) free(fp *FreeProcess) {
	for o := d.object(freeKeys); d.member(&o); {
		switch o.key {
		case "event":
			fp.Event = cp.EventType(d.uint8("cp.EventType"))
		case "inter":
			d.sojourn(&fp.Inter)
		}
	}
}

func (d *modelDecoder) firstCat(c *FirstCat) {
	for o := d.object(firstCatKeys); d.member(&o); {
		switch o.key {
		case "event":
			c.Event = cp.EventType(d.uint8("cp.EventType"))
		case "state":
			c.State = sm.State(d.uint8("sm.State"))
		case "p":
			c.P = d.float()
		}
	}
}

func (d *modelDecoder) sojourn(s *SojournModel) {
	for o := d.object(sojournKeys); d.member(&o); {
		switch o.key {
		case "kind":
			s.Kind = d.str()
		case "q":
			s.Q = d.floats()
		case "lambda":
			s.Lambda = d.float()
		case "value":
			s.Value = d.float()
		}
	}
}
