package dpdk

// sysSendmmsg is sendmmsg(2), which is newer than the syscall package's
// table for this architecture.
const sysSendmmsg = 307
