package netbroker

import (
	"time"

	"alarmverify/internal/broker"
)

// AppendWithSeq sends one append carrying the given idempotence
// metadata to the node at addr, the way a producer's retry resends a
// batch, and returns the base offset the node acked.
func AppendWithSeq(addr, topic string, partition int, producerID, seq int64, recs []broker.Record) (int64, error) {
	rc, err := dialRPC(addr, time.Second)
	if err != nil {
		return 0, err
	}
	defer rc.close()
	req := appendReq{Topic: topic, Partition: partition, ProducerID: producerID, BaseSeq: seq, Recs: recs}
	var resp appendResp
	if err := rc.callWire(opAppend, &req, &resp, nil); err != nil {
		return 0, err
	}
	return resp.Base, nil
}
