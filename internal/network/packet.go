package network

import (
	"repro/internal/fib"
	"repro/internal/sim"
)

// Protocol numbers used by the simulator's packets.
const (
	ProtoUDP uint8 = 17
	ProtoTCP uint8 = 6
)

// Packet is the unit of forwarding. Payload carries the transport segment
// opaquely; the network layer only reads the flow key, size and TTL.
//
// Packets obtained from Network.NewPacket are recycled the moment they die
// (delivery or drop): receivers and drop observers may read them during the
// callback but must not retain the *Packet afterwards (retaining the
// Payload is fine — the pool never touches payload contents). Packets
// constructed directly with &Packet{} are never recycled.
//
//f2tree:pooled
type Packet struct {
	// Flow is the five-tuple; Flow.Dst drives forwarding.
	Flow fib.FlowKey
	// Size is the on-wire size in bytes (headers included).
	Size int
	// TTL is decremented per switch hop; the packet is dropped at zero.
	TTL int
	// SentAt is the time the packet left the sending host.
	SentAt sim.Time
	// Hops counts switch traversals, for path-length assertions.
	Hops int
	// Payload is the transport-layer segment.
	Payload any

	// pooled marks packets owned by a Network's free list.
	pooled bool
}

// DropCause says why the network dropped a packet.
type DropCause int

// Drop causes.
const (
	DropNoRoute DropCause = iota + 1
	DropLinkDown
	DropQueueOverflow
	DropTTLExpired
	DropNotForMe
	// DropInjected marks packets eaten by an installed LossFunc (gray
	// failures, chaos loss injection) — deliberately distinct from
	// DropLinkDown so oracles can separate injected loss from structural
	// blackholes.
	DropInjected
)

// String names the cause.
func (c DropCause) String() string {
	switch c {
	case DropNoRoute:
		return "no-route"
	case DropLinkDown:
		return "link-down"
	case DropQueueOverflow:
		return "queue-overflow"
	case DropTTLExpired:
		return "ttl-expired"
	case DropNotForMe:
		return "not-for-me"
	case DropInjected:
		return "injected"
	default:
		return "unknown"
	}
}

// Stats counts network-wide forwarding outcomes.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Drops     map[DropCause]uint64
	// FalseDowns counts detector down verdicts applied against links that
	// were actually healthy in both directions — adaptive-BFD congestion
	// flaps and injected false-positive faults. Always zero under the
	// fixed detector, which samples actual link state.
	FalseDowns uint64
}

// TotalDrops sums every drop cause.
func (s Stats) TotalDrops() uint64 {
	var n uint64
	//f2tree:unordered commutative sum over drop counters
	for _, v := range s.Drops {
		n += v
	}
	return n
}
