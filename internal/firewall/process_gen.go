// Code generated by instgen from firewall.ProcessPacket; DO NOT EDIT.

package firewall

// prodProcessPacket is firewall.ProcessPacket instantiated at
// *prodEnv: the verified body, byte for byte, every env call direct.
func prodProcessPacket(env *prodEnv) {
	env.ExpireSessions()
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
		!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
		env.Drop()
		return
	}
	if env.PacketFromInternal() {
		h, ok := env.LookupOutbound()
		if ok {
			env.Rejuvenate(h)
		} else {
			h, ok = env.CreateSession()
		}
		if ok {
			env.ForwardOut()
		} else {
			env.Drop()
		}
		return
	}
	h, ok := env.LookupInbound()
	if ok {
		env.Rejuvenate(h)
		env.ForwardIn()
	} else {
		env.Drop()
	}
}
