// Code generated by instgen from lb.ProcessPacket; DO NOT EDIT.

package lb

// prodProcessPacket is lb.ProcessPacket instantiated at
// *prodEnv: the verified body, byte for byte, every env call direct.
func prodProcessPacket(env *prodEnv) {
	env.ExpireState()
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
		!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
		env.Drop()
		return
	}
	if env.PacketFromClient() {
		if !env.DstIsVIP() {
			env.Passthrough()
			return
		}
		if h, ok := env.LookupSticky(); ok {
			env.Rejuvenate(h)
			env.ForwardToBackend(h)
			return
		}
		b, ok := env.SelectBackend()
		if !ok {
			env.Drop() // no live backend
			return
		}
		h, ok := env.CreateSticky(b)
		if !ok {
			env.Drop() // sticky table full
			return
		}
		env.ForwardToBackend(h)
		return
	}
	if h, ok := env.LookupReply(); ok {
		env.Rejuvenate(h)
		env.ForwardToClient(h)
		return
	}
	env.Passthrough()
}
