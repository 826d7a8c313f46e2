package main

import (
	"bytes"
	"fmt"
	"time"

	"mether"
	"mether/internal/ethernet"
	"mether/internal/fabric"
	"mether/internal/host"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
	"mether/internal/vm"
)

// A microdriver exercises one layer through its public constructors and
// methods only, checks what it did, and returns host nanoseconds per
// unit of work. Microdrivers run in the traced run only.
type microdriver struct {
	name string
	fn   func() (float64, error)
}

var micros = []microdriver{
	{"sim.dispatch_ns", microDispatch},
	{"sim.proc_roundtrip_ns", microProcRoundTrip},
	{"host.sleep_wake_ns", microSleepWake},
	{"core.fault_roundtrip_ns", microFaultRoundTrip},
	{"proto.codec_short_ns", func() (float64, error) { return microCodec(true, 200_000) }},
	{"proto.codec_full_ns", func() (float64, error) { return microCodec(false, 20_000) }},
	{"ethernet.broadcast_deliver_ns", func() (float64, error) { return microBroadcast(48, 10_000) }},
	{"ethernet.broadcast_deliver_full_ns", func() (float64, error) { return microBroadcast(proto.HeaderLen+vm.PageSize, 2_000) }},
	{"ethernet.bridge_forward_ns", microBridgeForward},
	{"fabric.fanout_deliver_ns", microFanout},
}

// microRepeats is how many times each microdriver runs; the median is
// reported.
const microRepeats = 3

// runMicros runs every microdriver under a host span. It returns each
// one's median ns per unit and one problem per failed check.
func runMicros(tr *tracer) (map[string]float64, []string) {
	out := map[string]float64{}
	var problems []string
	for _, m := range micros {
		var xs []float64
		for i := 0; i < microRepeats; i++ {
			sp := tr.begin("micro." + m.name)
			ns, err := m.fn()
			tr.end(sp)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", m.name, err))
				break
			}
			xs = append(xs, ns)
		}
		out[m.name] = median(xs)
	}
	return out, problems
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// microDispatch chains timer events through the kernel: one schedule
// plus one dispatch per unit.
func microDispatch() (float64, error) {
	const n = 200_000
	k := sim.New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			k.After(time.Microsecond, "tick", tick)
		}
	}
	k.After(time.Microsecond, "tick", tick)
	t0 := time.Now()
	k.Run()
	d := time.Since(t0)
	if count != n || k.Dispatched() != n {
		return 0, fmt.Errorf("ran %d ticks in %d events, want %d", count, k.Dispatched(), n)
	}
	return nsPer(d, n), nil
}

// microProcRoundTrip is one process sleeping in a loop: each unit is a
// park, a timer event and a resume — the proc-handoff round trip.
func microProcRoundTrip() (float64, error) {
	const n = 50_000
	k := sim.New(1)
	count := 0
	k.Spawn("sleeper", func(p *sim.Proc) {
		for count < n {
			count++
			p.Sleep(time.Microsecond)
		}
	})
	t0 := time.Now()
	k.Run()
	d := time.Since(t0)
	k.Shutdown()
	if count != n {
		return 0, fmt.Errorf("slept %d times, want %d", count, n)
	}
	return nsPer(d, n), nil
}

// microSleepWake is a host process blocking on a wait key and a kernel
// event waking it: the shape of every fault wait and server doze.
func microSleepWake() (float64, error) {
	const n = 50_000
	k := sim.New(1)
	h := host.New(k, 0, "micro", host.DefaultParams())
	var key any = "micro"
	count := 0
	var wake func()
	wake = func() {
		h.Wakeup(key)
		if count < n {
			k.After(50*time.Microsecond, "waker", wake)
		}
	}
	h.Spawn("sleeper", func(p *host.Proc) {
		for count < n {
			count++
			p.SleepOn(key)
		}
	})
	k.After(50*time.Microsecond, "waker", wake)
	t0 := time.Now()
	k.Run()
	d := time.Since(t0)
	k.Shutdown()
	if count != n {
		return 0, fmt.Errorf("woke %d times, want %d", count, n)
	}
	return nsPer(d, n), nil
}

// microFaultRoundTrip is a 2-host world whose reader purges its replica
// and demand-fetches the owner's value in a loop: each unit is a full
// request, server handling, broadcast reply and install.
func microFaultRoundTrip() (float64, error) {
	const n = 2_000
	w := mether.NewWorld(mether.Config{Hosts: 2, Pages: 8, Seed: 1})
	defer w.Shutdown()
	seg, err := w.CreateSegment("ping", 1, 0)
	if err != nil {
		return 0, err
	}
	capRW := seg.CapRW()
	var ferr error
	reads := 0
	w.Spawn(0, "owner", func(env *mether.Env) {
		m, err := env.Attach(capRW, mether.RW)
		if err == nil {
			a := m.Addr(0, 0).Short()
			if err = m.Store32(a, 42); err == nil {
				err = m.Purge(a)
			}
		}
		if err != nil {
			ferr = err
		}
	})
	w.Spawn(1, "reader", func(env *mether.Env) {
		env.SleepFor(time.Second) // let the owner publish first
		m, err := env.Attach(capRW.ReadOnly(), mether.RO)
		if err != nil {
			ferr = err
			return
		}
		a := m.Addr(0, 0).Short()
		for i := 0; i < n; i++ {
			if err := m.Purge(a); err != nil {
				ferr = err
				return
			}
			v, err := m.Load32(a)
			if err != nil || v != 42 {
				ferr = fmt.Errorf("read %d (%v), want 42", v, err)
				return
			}
			reads++
		}
	})
	t0 := time.Now()
	w.Run()
	d := time.Since(t0)
	if ferr != nil {
		return 0, ferr
	}
	if faults := w.Driver(1).Metrics().DemandFaults; reads != n || faults < n {
		return 0, fmt.Errorf("%d reads and %d demand faults, want %d of each", reads, faults, n)
	}
	return nsPer(d, n), nil
}

// microCodec encodes and decodes one data packet per unit.
func microCodec(short bool, n int) (float64, error) {
	size := vm.PageSize
	if short {
		size = vm.ShortSize
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	pkt := proto.Packet{Type: proto.TypeData, Page: 3, Short: short, From: 1, OwnerTo: proto.NoOwner, Gen: 7, Data: data}
	t0 := time.Now()
	var got proto.Packet
	for i := 0; i < n; i++ {
		b, err := proto.Encode(pkt)
		if err != nil {
			return 0, err
		}
		if got, err = proto.Decode(b); err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	if got.Page != pkt.Page || got.Gen != pkt.Gen || got.Short != short || !bytes.Equal(got.Data, data) {
		return 0, fmt.Errorf("decode did not round-trip: %+v", got)
	}
	return nsPer(d, n), nil
}

// drain attaches an interrupt handler that empties a port's ring,
// counting frames.
func drain(port func() medium.Port, count *int) func() {
	return func() {
		p := port()
		for {
			f, ok := p.Recv()
			if !ok {
				return
			}
			*count++
			p.Release(f)
		}
	}
}

// pump sends n broadcasts from tx, one every pace, starting now.
func pump(k *sim.Kernel, tx medium.Port, payload []byte, n int, pace time.Duration) {
	sent := 0
	var next func()
	next = func() {
		tx.Send(medium.Broadcast, payload)
		sent++
		if sent < n {
			k.After(pace, "pump", next)
		}
	}
	k.After(0, "pump", next)
}

// ethernetPace is one frame's serialization plus gap and propagation:
// sending at that rate keeps the wire drained, so the microdriver measures
// the data path rather than queue growth.
func ethernetPace(p ethernet.Params, payload int) time.Duration {
	wire := payload + p.FrameOverhead
	if wire < p.MinFrameBytes {
		wire = p.MinFrameBytes
	}
	return time.Duration(int64(wire)*8*int64(time.Second)/p.BandwidthBps) + p.InterFrameGap + p.PropDelay
}

// poolCheck fails when a medium's payload pool holds buffers after the
// run drained: every allocated buffer must be back on the free list.
func poolCheck(what string, m interface{ PoolStats() (int, int) }) error {
	if allocated, free := m.PoolStats(); allocated != free {
		return fmt.Errorf("%s pool: %d buffers allocated, %d free after drain", what, allocated, free)
	}
	return nil
}

const fanPorts = 64

// microBroadcast fans broadcasts of one payload size out to 64 draining
// NICs on one bus; each unit is one delivery to one receiver.
func microBroadcast(payload, n int) (float64, error) {
	k := sim.New(1)
	p := ethernet.DefaultParams()
	bus := ethernet.NewBus(k, p)
	received := 0
	for i := 0; i < fanPorts; i++ {
		var nic medium.Port
		nic = bus.AttachPort(fmt.Sprintf("rx%d", i), drain(func() medium.Port { return nic }, &received))
	}
	tx := bus.AttachPort("tx", nil)
	pump(k, tx, make([]byte, payload), n, ethernetPace(p, payload))
	t0 := time.Now()
	k.Run()
	d := time.Since(t0)
	if received != n*fanPorts {
		return 0, fmt.Errorf("%d deliveries, want %d", received, n*fanPorts)
	}
	if err := poolCheck("ethernet", bus); err != nil {
		return 0, err
	}
	return nsPer(d, received), nil
}

// microBridgeForward sends broadcasts on trunk 0 of a 2-trunk topology
// to one draining NIC on trunk 1; each unit is one frame stored and
// forwarded across the bridge.
func microBridgeForward() (float64, error) {
	const n = 5_000
	k := sim.New(1)
	p := ethernet.DefaultParams()
	topo := ethernet.NewTopology(k, 2, p, ethernet.TopologyConfig{})
	received := 0
	var nic medium.Port
	nic = topo.Bus(1).AttachPort("rx", drain(func() medium.Port { return nic }, &received))
	tx := topo.Bus(0).AttachPort("tx", nil)
	pump(k, tx, make([]byte, 48), n, ethernetPace(p, 48))
	t0 := time.Now()
	k.Run()
	d := time.Since(t0)
	if fwd := topo.BridgeStats().Forwarded; received != n || fwd != n {
		return 0, fmt.Errorf("%d forwarded, %d received, want %d", fwd, received, n)
	}
	for i := 0; i < topo.Trunks(); i++ {
		if err := poolCheck(fmt.Sprintf("trunk %d", i), topo.Bus(i)); err != nil {
			return 0, err
		}
	}
	return nsPer(d, n), nil
}

// microFanout broadcasts on a fabric to 64 draining ports: each unit is
// one sender-paid fan-out copy serialized on its link and delivered.
func microFanout() (float64, error) {
	const n = 10_000
	k := sim.New(1)
	fab := fabric.New(k, fabric.DefaultParams())
	received := 0
	for i := 0; i < fanPorts; i++ {
		var port medium.Port
		port = fab.AttachPort(fmt.Sprintf("rx%d", i), drain(func() medium.Port { return port }, &received))
	}
	tx := fab.AttachPort("tx", nil)
	pump(k, tx, make([]byte, 48), n, 10*time.Microsecond)
	t0 := time.Now()
	k.Run()
	d := time.Since(t0)
	if received != n*fanPorts {
		return 0, fmt.Errorf("%d deliveries, want %d", received, n*fanPorts)
	}
	if err := poolCheck("fabric", fab); err != nil {
		return 0, err
	}
	return nsPer(d, received), nil
}
