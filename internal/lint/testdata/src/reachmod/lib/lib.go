package lib

// Pub is re-exported by the facade, but no program calls Exported.
type Pub struct{ n int }

func NewPub() *Pub { return &Pub{} }

func (p *Pub) Exported() int { return p.n }

type Iface interface{ Do() int }

// Impl reaches Do through Iface and String through fmt.Stringer.
type Impl struct{}

func (Impl) Do() int { return 1 }

func (Impl) NotInIface() int { return 2 }

func (Impl) String() string { return "impl" }

func Use(i Iface) int { return i.Do() }

func MakeImpl() Iface { return Impl{} }

// Loner implements Iface, but only a blank assertion names it.
type Loner struct{}

func (Loner) Do() int { return 3 }

var _ Iface = Loner{}

type Kind int

// KB is named by nothing but stays: removing it would renumber KC.
const (
	KA Kind = iota
	KB
	KC
)

// helper is reached through the table of function values.
var table = map[Kind]func() int{KA: helper}

func helper() int { return 0 }

func Lookup(k Kind) int { return table[k]() }

func Dead() {}

type DeadType struct{}

var deadVar = 1

// Kept is allowed, so what it calls is reached.
func Kept() int { return keptHelper() }

func keptHelper() int { return 4 }
