package multicast

// PolicyOf returns the policy of the kernel that protocol instance p embeds.
func PolicyOf(p Protocol) Policy { return p.(interface{ kernelPolicy() Policy }).kernelPolicy() }

func (k *Kernel) kernelPolicy() Policy { return k.policy }
