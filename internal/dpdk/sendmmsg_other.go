//go:build !amd64 && !386

package dpdk

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG
