// Code generated by instgen from stateless.ProcessPacket; DO NOT EDIT.

package nat

// prodProcessPacket is stateless.ProcessPacket instantiated at
// *prodEnv: the verified body, byte for byte, every env call direct.
func prodProcessPacket(env *prodEnv) {
	// Packet P arrives at time t → expire_flows(t)  (Fig. 6 l.2).
	env.ExpireFlows()

	// Parsing chain: anything traditional NAT cannot translate is
	// dropped. Each predicate is a verified fork point.
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
		!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
		env.Drop()
		return
	}

	if env.PacketFromInternal() {
		// update_flow: rejuvenate on hit, insert on miss (Fig. 6
		// ll.10-19); forward: rewrite toward external (ll.20-28).
		h, ok := env.LookupInternal()
		if ok {
			env.Rejuvenate(h)
		} else {
			h, ok = env.AllocateFlow()
		}
		if ok {
			env.EmitExternal(h)
		} else {
			env.Drop()
		}
		return
	}

	// External packet: never creates state (Fig. 6 l.14 guards insert
	// with P.iface = internal); forwarded only if a session exists.
	h, ok := env.LookupExternal()
	if ok {
		env.Rejuvenate(h)
		env.EmitInternal(h)
	} else {
		env.Drop()
	}
}
