package env

// HeaderSize is what the simulator charges per send for everything below
// the codec: TCP/IP headers and the transport's frame (length prefix,
// sender address). NodeEnv.Send adds it, once, to the message's
// WireSize(), which is exactly the bytes package wire writes plus the
// message's declared pad — so simulated traffic ("aggregate network
// traffic", Figure 4) and real frames are measured by the same ruler.
const HeaderSize = 32
