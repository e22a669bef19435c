package cluster

import "repro/internal/iosched"

// Queues returns the block queues of c's disks and SSDs.
func (c *Cluster) Queues() (disk, ssd []*iosched.Queue) { return c.diskQs, c.ssdQs }
