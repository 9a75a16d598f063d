package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/faster"
)

// restartCheck runs after load and compaction have stopped: checkpoint,
// close, recover on the same devices, and read back every key written in
// this run and every counter against what the connections last wrote. Its outcome is reported as
// layer metrics and kept out of `correct` and fail_share, so the open
// recovery bug in ROADMAP cannot make unrelated changes flap.
func (u *run) restartCheck() error {
	res := u.res
	dir := u.opt.outPath(fmt.Sprintf("ckpt-%s-%d", u.w.name, os.Getpid()))
	defer os.RemoveAll(dir)
	for _, c := range u.conn {
		c.close()
	}
	u.conn = nil

	report := func(ckpt, recov time.Duration, ok bool, why string) {
		res.add("faster.checkpoint_s", ckpt.Seconds(), "s", 1)
		res.add("faster.recover_s", recov.Seconds(), "s", 1)
		v := 0.0
		if ok {
			v = 1
		}
		res.add("faster.restart_ok", v, "bool", 1)
		if !ok {
			res.Notes = append(res.Notes, "restart check failed: "+why)
		}
	}

	start := time.Now()
	_, err := u.rig.store.Checkpoint(dir)
	ckpt := time.Since(start)
	if err != nil {
		report(ckpt, 0, false, "checkpoint: "+err.Error())
		return nil
	}
	if err := u.rig.closeStore(); err != nil {
		report(ckpt, 0, false, "close: "+err.Error())
		return nil
	}
	start = time.Now()
	store, err := faster.RecoverSharded(u.rig.cfg, dir)
	recov := time.Since(start)
	if err != nil {
		report(ckpt, recov, false, "recover: "+err.Error())
		return nil
	}
	u.rig.store = store
	if err := u.connect(); err != nil {
		return err
	}
	t, err := u.readBack(true)
	switch {
	case err != nil:
		report(ckpt, recov, false, err.Error())
	case t.failed() > 0:
		report(ckpt, recov, false, fmt.Sprintf("%d of %d keys read back wrong or not at all", t.failed(), t.issued))
	default:
		report(ckpt, recov, true, "")
	}
	return nil
}
