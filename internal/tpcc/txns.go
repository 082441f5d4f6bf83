package tpcc

import (
	"fmt"
	"math/rand"

	"wattdb/internal/cc"
	"wattdb/internal/cluster"
	"wattdb/internal/sim"
	"wattdb/internal/table"
)

// TxnType enumerates the five TPC-C transactions.
type TxnType int

const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	numTxnTypes
)

// String returns the transaction's display name.
func (t TxnType) String() string {
	return [...]string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}[t]
}

// PickTxn draws a transaction type with the standard mix (45/43/4/4/4).
func PickTxn(rng *rand.Rand) TxnType {
	r := rng.Intn(100)
	switch {
	case r < 45:
		return TxnNewOrder
	case r < 88:
		return TxnPayment
	case r < 92:
		return TxnOrderStatus
	case r < 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// Effect summarizes the state changes of one executed transaction, recorded
// when Deployment.RecordEffects is set. A workload oracle applies the effect
// to its model the instant the commit is acknowledged — the summary carries
// everything the model needs (order ids read under the transaction's own
// snapshot, random amounts, chosen items), none of which it could re-derive.
type Effect struct {
	Type TxnType
	W, D int64

	// NewOrder: the order id taken from D_NEXT_O_ID and its lines.
	OID   int64
	OlCnt int64
	Lines []EffectLine

	// Payment: the amount credited to the home warehouse/district YTD.
	Amount float64

	// Delivery: the orders removed from NEW_ORDER, one per district served.
	Delivered []DeliveredOrder
}

// EffectLine is one NewOrder line's stock impact.
type EffectLine struct {
	Item    int64
	SupplyW int64
	Qty     int64
}

// DeliveredOrder names one order a Delivery transaction processed.
type DeliveredOrder struct {
	D, OID int64
}

// recordEffect files eff under the session's transaction (last writer wins:
// a retried transaction overwrites its previous attempt's summary).
func (d *Deployment) recordEffect(s *cluster.Session, eff *Effect) {
	if !d.RecordEffects {
		return
	}
	if d.effects == nil {
		d.effects = make(map[cc.TxnID]*Effect)
	}
	d.effects[s.Txn.ID] = eff
}

// TakeEffect pops the recorded effect of a transaction (nil if none — a
// read-only or unrecorded transaction). Call it for aborted transactions
// too, so the table does not accumulate dead entries.
func (d *Deployment) TakeEffect(id cc.TxnID) *Effect {
	eff := d.effects[id]
	delete(d.effects, id)
	return eff
}

// txnScratch is the per-transaction decode/encode workspace: one reusable
// one-row batch per table plus key and payload encode buffers. Scratches
// are pooled on the Deployment (the simulation kernel is cooperative, so
// the pool needs no locking); a warm transaction mix decodes and re-encodes
// rows without allocating per record.
type txnScratch struct {
	rows map[string]*table.Batch
	key  []byte
	buf  []byte
}

// batch returns the scratch's reusable batch for schema, reset to empty.
func (sc *txnScratch) batch(s *table.Schema) *table.Batch {
	b := sc.rows[s.Name]
	if b == nil {
		b = table.NewBatch(s)
		sc.rows[s.Name] = b
	} else {
		b.Reset()
	}
	return b
}

func (d *Deployment) getScratch() *txnScratch {
	if n := len(d.scratch); n > 0 {
		sc := d.scratch[n-1]
		d.scratch = d.scratch[:n-1]
		return sc
	}
	return &txnScratch{rows: make(map[string]*table.Batch)}
}

func (d *Deployment) putScratch(sc *txnScratch) { d.scratch = append(d.scratch, sc) }

// Exec runs one transaction of the given type against sess, for home
// warehouse w. The caller owns commit/abort (Exec leaves the session open on
// success and returns any execution error as-is for retry logic).
func (d *Deployment) Exec(p *sim.Proc, sess *cluster.Session, typ TxnType, w int, rng *rand.Rand) error {
	switch typ {
	case TxnNewOrder:
		return d.NewOrder(p, sess, w, rng)
	case TxnPayment:
		return d.Payment(p, sess, w, rng)
	case TxnOrderStatus:
		return d.OrderStatus(p, sess, w, rng)
	case TxnDelivery:
		return d.Delivery(p, sess, w, rng)
	default:
		return d.StockLevel(p, sess, w, rng)
	}
}

// get reads tbl[keyVals...] into the scratch's reusable batch for that
// table (row 0 of the returned batch; valid until the table is read again
// through the same scratch).
func (d *Deployment) get(p *sim.Proc, s *cluster.Session, sc *txnScratch, tbl string, keyVals ...any) (*table.Batch, bool, error) {
	return d.read(p, s, sc, false, tbl, keyVals...)
}

// getForUpdate is get for a row the transaction updates next: the read
// takes the row's write intent (cluster.Session.GetForUpdate).
func (d *Deployment) getForUpdate(p *sim.Proc, s *cluster.Session, sc *txnScratch, tbl string, keyVals ...any) (*table.Batch, bool, error) {
	return d.read(p, s, sc, true, tbl, keyVals...)
}

func (d *Deployment) read(p *sim.Proc, s *cluster.Session, sc *txnScratch, forUpdate bool, tbl string, keyVals ...any) (*table.Batch, bool, error) {
	schema := d.Schemas[tbl]
	var err error
	sc.key, err = schema.AppendKeyPrefix(sc.key[:0], keyVals...)
	if err != nil {
		return nil, false, err
	}
	get := s.Get
	if forUpdate {
		get = s.GetForUpdate
	}
	raw, ok, err := get(p, tbl, sc.key)
	if err != nil || !ok {
		return nil, ok, err
	}
	b := sc.batch(schema)
	if err := schema.AppendDecoded(b, raw); err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// putRow writes back row 0 of b, re-encoding key and payload into the
// scratch's buffers (the partition layer copies what it stages).
func (d *Deployment) putRow(p *sim.Proc, s *cluster.Session, sc *txnScratch, tbl string, b *table.Batch) error {
	schema := d.Schemas[tbl]
	var err error
	sc.key, err = schema.AppendKey(sc.key[:0], b, 0)
	if err != nil {
		return err
	}
	sc.buf, err = schema.AppendEncoded(sc.buf[:0], b, 0)
	if err != nil {
		return err
	}
	return s.Put(p, tbl, sc.key, sc.buf)
}

// put inserts a freshly built row, encoding through the scratch buffers.
func (d *Deployment) put(p *sim.Proc, s *cluster.Session, sc *txnScratch, tbl string, row table.Row) error {
	schema := d.Schemas[tbl]
	var err error
	sc.key, err = schema.AppendKeyPrefix(sc.key[:0], row[:schema.KeyCols]...)
	if err != nil {
		return err
	}
	sc.buf, err = schema.AppendEncodedRow(sc.buf[:0], row)
	if err != nil {
		return err
	}
	return s.Put(p, tbl, sc.key, sc.buf)
}

// NewOrder is the spec's order-entry transaction: reads warehouse, district
// (bumping D_NEXT_O_ID), customer and items; inserts ORDERS, NEW_ORDER, and
// one ORDER_LINE per item; updates each STOCK row (1% of lines supply from
// a remote warehouse, making the transaction distributed).
func (d *Deployment) NewOrder(p *sim.Proc, s *cluster.Session, w int, rng *rand.Rand) error {
	sc := d.getScratch()
	defer d.putScratch(sc)
	cfg := d.Cfg
	dd := 1 + rng.Intn(cfg.DistrictsPerW)
	c := NURand(rng, 1023, 1, cfg.CustomersPerDistrict)
	olCnt := 5 + rng.Intn(11)

	if _, ok, err := d.get(p, s, sc, TWarehouse, int64(w)); err != nil || !ok {
		return orErr(err, "warehouse %d missing", w)
	}
	dist, ok, err := d.getForUpdate(p, s, sc, TDistrict, int64(w), int64(dd))
	if err != nil || !ok {
		return orErr(err, "district %d/%d missing", w, dd)
	}
	if _, ok, err = d.get(p, s, sc, TCustomer, int64(w), int64(dd), int64(c)); err != nil || !ok {
		return orErr(err, "customer %d/%d/%d missing", w, dd, c)
	}

	oID := dist.Int(5, 0)
	dist.SetInt(5, 0, oID+1)
	if err := d.putRow(p, s, sc, TDistrict, dist); err != nil {
		return err
	}
	eff := &Effect{Type: TxnNewOrder, W: int64(w), D: int64(dd), OID: oID, OlCnt: int64(olCnt)}
	if err := d.put(p, s, sc, TOrders, table.Row{int64(w), int64(dd), oID,
		int64(c), oID, int64(0), int64(olCnt)}); err != nil {
		return err
	}
	if err := d.put(p, s, sc, TNewOrder, table.Row{int64(w), int64(dd), oID}); err != nil {
		return err
	}
	total := 0.0
	for ol := 1; ol <= olCnt; ol++ {
		item := NURand(rng, 8191, 1, cfg.Items)
		supplyW := w
		if cfg.Warehouses > 1 && rng.Intn(100) == 0 {
			for supplyW == w {
				supplyW = 1 + rng.Intn(cfg.Warehouses)
			}
		}
		itemRow, ok, err := d.get(p, s, sc, TItem, int64(item))
		if err != nil || !ok {
			return orErr(err, "item %d missing", item)
		}
		price := itemRow.Float(2, 0)
		stock, ok, err := d.getForUpdate(p, s, sc, TStock, int64(supplyW), int64(item))
		if err != nil || !ok {
			return orErr(err, "stock %d/%d missing", supplyW, item)
		}
		qty := int64(1 + rng.Intn(10))
		sq := stock.Int(2, 0)
		if sq >= qty+10 {
			stock.SetInt(2, 0, sq-qty)
		} else {
			stock.SetInt(2, 0, sq-qty+91)
		}
		stock.SetFloat(3, 0, stock.Float(3, 0)+float64(qty))
		stock.SetInt(4, 0, stock.Int(4, 0)+1)
		if supplyW != w {
			stock.SetInt(5, 0, stock.Int(5, 0)+1)
		}
		if err := d.putRow(p, s, sc, TStock, stock); err != nil {
			return err
		}
		amount := float64(qty) * price
		total += amount
		if err := d.put(p, s, sc, TOrderLine, table.Row{int64(w), int64(dd), oID, int64(ol),
			int64(item), int64(supplyW), qty, amount, "dist-info-xxxxxxxxxxxxxx"}); err != nil {
			return err
		}
		if d.RecordEffects {
			eff.Lines = append(eff.Lines, EffectLine{Item: int64(item), SupplyW: int64(supplyW), Qty: qty})
		}
	}
	_ = total
	d.recordEffect(s, eff)
	return nil
}

// Payment updates warehouse and district YTD, the customer's balance, and
// appends a history row. 15% of payments are for a customer of a remote
// warehouse, per spec.
func (d *Deployment) Payment(p *sim.Proc, s *cluster.Session, w int, rng *rand.Rand) error {
	sc := d.getScratch()
	defer d.putScratch(sc)
	cfg := d.Cfg
	dd := 1 + rng.Intn(cfg.DistrictsPerW)
	cw, cd := w, dd
	if cfg.Warehouses > 1 && rng.Intn(100) < 15 {
		for cw == w {
			cw = 1 + rng.Intn(cfg.Warehouses)
		}
		cd = 1 + rng.Intn(cfg.DistrictsPerW)
	}
	c := NURand(rng, 1023, 1, cfg.CustomersPerDistrict)
	amount := 1 + rng.Float64()*4999

	wh, ok, err := d.getForUpdate(p, s, sc, TWarehouse, int64(w))
	if err != nil || !ok {
		return orErr(err, "warehouse %d missing", w)
	}
	wh.SetFloat(3, 0, wh.Float(3, 0)+amount)
	if err := d.putRow(p, s, sc, TWarehouse, wh); err != nil {
		return err
	}
	dist, ok, err := d.getForUpdate(p, s, sc, TDistrict, int64(w), int64(dd))
	if err != nil || !ok {
		return orErr(err, "district missing")
	}
	dist.SetFloat(4, 0, dist.Float(4, 0)+amount)
	if err := d.putRow(p, s, sc, TDistrict, dist); err != nil {
		return err
	}
	cust, ok, err := d.getForUpdate(p, s, sc, TCustomer, int64(cw), int64(cd), int64(c))
	if err != nil || !ok {
		return orErr(err, "customer missing")
	}
	cust.SetFloat(5, 0, cust.Float(5, 0)-amount)
	cust.SetFloat(6, 0, cust.Float(6, 0)+amount)
	cust.SetInt(7, 0, cust.Int(7, 0)+1)
	if err := d.putRow(p, s, sc, TCustomer, cust); err != nil {
		return err
	}
	seq := int64(s.Txn.ID) // unique per transaction
	if err := d.put(p, s, sc, THistory, table.Row{int64(cw), int64(cd), int64(c), seq,
		amount, "payment-history-data"}); err != nil {
		return err
	}
	d.recordEffect(s, &Effect{Type: TxnPayment, W: int64(w), D: int64(dd), Amount: amount})
	return nil
}

// OrderStatus reads a customer's most recent order and its lines
// (read-only).
func (d *Deployment) OrderStatus(p *sim.Proc, s *cluster.Session, w int, rng *rand.Rand) error {
	sc := d.getScratch()
	defer d.putScratch(sc)
	cfg := d.Cfg
	dd := 1 + rng.Intn(cfg.DistrictsPerW)
	c := NURand(rng, 1023, 1, cfg.CustomersPerDistrict)
	if _, ok, err := d.get(p, s, sc, TCustomer, int64(w), int64(dd), int64(c)); err != nil || !ok {
		return orErr(err, "customer missing")
	}
	// Latest order of the customer: scan the district's recent orders.
	dist, ok, err := d.get(p, s, sc, TDistrict, int64(w), int64(dd))
	if err != nil || !ok {
		return orErr(err, "district missing")
	}
	nextO := dist.Int(5, 0)
	fromO := nextO - 40
	if fromO < 1 {
		fromO = 1
	}
	oSchema := d.Schemas[TOrders]
	lo, _ := oSchema.EncodeKeyPrefix(int64(w), int64(dd), fromO)
	hi, _ := oSchema.EncodeKeyPrefix(int64(w), int64(dd), nextO)
	var lastOrder int64 = -1
	var olCnt int64
	ob := sc.batch(oSchema)
	err = s.Scan(p, TOrders, lo, hi, func(_, payload []byte) bool {
		ob.Reset()
		if oSchema.AppendDecoded(ob, payload) != nil {
			return false
		}
		if ob.Int(3, 0) == int64(c) {
			lastOrder = ob.Int(2, 0)
			olCnt = ob.Int(6, 0)
		}
		return true
	})
	if err != nil {
		return err
	}
	if lastOrder < 0 {
		return nil // customer has no recent order: valid outcome
	}
	olSchema := d.Schemas[TOrderLine]
	llo, _ := olSchema.EncodeKeyPrefix(int64(w), int64(dd), lastOrder)
	lhi, _ := olSchema.EncodeKeyPrefix(int64(w), int64(dd), lastOrder+1)
	seen := int64(0)
	if err := s.Scan(p, TOrderLine, llo, lhi, func(_, _ []byte) bool {
		seen++
		return true
	}); err != nil {
		return err
	}
	_ = olCnt
	_ = seen
	return nil
}

// Delivery processes the oldest undelivered order of every district:
// removes its NEW_ORDER entry, stamps the carrier, sums the line amounts
// and credits the customer.
func (d *Deployment) Delivery(p *sim.Proc, s *cluster.Session, w int, rng *rand.Rand) error {
	sc := d.getScratch()
	defer d.putScratch(sc)
	carrier := int64(1 + rng.Intn(10))
	noSchema := d.Schemas[TNewOrder]
	olSchema := d.Schemas[TOrderLine]
	eff := &Effect{Type: TxnDelivery, W: int64(w)}
	for dd := 1; dd <= d.Cfg.DistrictsPerW; dd++ {
		lo, _ := noSchema.EncodeKeyPrefix2(int64(w), int64(dd))
		hi, _ := noSchema.EncodeKeyPrefix2(int64(w), int64(dd+1))
		var oldest int64 = -1
		nb := sc.batch(noSchema)
		if err := s.Scan(p, TNewOrder, lo, hi, func(_, payload []byte) bool {
			nb.Reset()
			if noSchema.AppendDecoded(nb, payload) != nil {
				return false
			}
			oldest = nb.Int(2, 0)
			return false // first = oldest
		}); err != nil {
			return err
		}
		if oldest < 0 {
			continue
		}
		noKey, err := noSchema.AppendKeyPrefix(sc.key[:0], int64(w), int64(dd), oldest)
		if err != nil {
			return err
		}
		sc.key = noKey
		if err := s.Delete(p, TNewOrder, sc.key); err != nil {
			return err
		}
		order, ok, err := d.get(p, s, sc, TOrders, int64(w), int64(dd), oldest)
		if err != nil || !ok {
			return orErr(err, "order %d/%d/%d missing", w, dd, oldest)
		}
		order.SetInt(5, 0, carrier)
		if err := d.putRow(p, s, sc, TOrders, order); err != nil {
			return err
		}
		custID := order.Int(3, 0)
		total := 0.0
		llo, _ := olSchema.EncodeKeyPrefix(int64(w), int64(dd), oldest)
		lhi, _ := olSchema.EncodeKeyPrefix(int64(w), int64(dd), oldest+1)
		ob := sc.batch(olSchema)
		if err := s.Scan(p, TOrderLine, llo, lhi, func(_, payload []byte) bool {
			ob.Reset()
			if olSchema.AppendDecoded(ob, payload) != nil {
				return false
			}
			total += ob.Float(7, 0)
			return true
		}); err != nil {
			return err
		}
		cust, ok, err := d.get(p, s, sc, TCustomer, int64(w), int64(dd), custID)
		if err != nil || !ok {
			return orErr(err, "customer missing")
		}
		cust.SetFloat(5, 0, cust.Float(5, 0)+total)
		cust.SetInt(8, 0, cust.Int(8, 0)+1)
		if err := d.putRow(p, s, sc, TCustomer, cust); err != nil {
			return err
		}
		if d.RecordEffects {
			eff.Delivered = append(eff.Delivered, DeliveredOrder{D: int64(dd), OID: oldest})
		}
	}
	d.recordEffect(s, eff)
	return nil
}

// StockLevel counts recently sold items whose stock fell below a threshold
// (read-only, scan-heavy).
func (d *Deployment) StockLevel(p *sim.Proc, s *cluster.Session, w int, rng *rand.Rand) error {
	sc := d.getScratch()
	defer d.putScratch(sc)
	dd := 1 + rng.Intn(d.Cfg.DistrictsPerW)
	threshold := int64(10 + rng.Intn(11))
	dist, ok, err := d.get(p, s, sc, TDistrict, int64(w), int64(dd))
	if err != nil || !ok {
		return orErr(err, "district missing")
	}
	nextO := dist.Int(5, 0)
	fromO := nextO - 20
	if fromO < 1 {
		fromO = 1
	}
	olSchema := d.Schemas[TOrderLine]
	lo, _ := olSchema.EncodeKeyPrefix(int64(w), int64(dd), fromO)
	hi, _ := olSchema.EncodeKeyPrefix(int64(w), int64(dd), nextO)
	seen := map[int64]bool{}
	var items []int64 // kept in scan order for determinism
	ob := sc.batch(olSchema)
	if err := s.Scan(p, TOrderLine, lo, hi, func(_, payload []byte) bool {
		ob.Reset()
		if olSchema.AppendDecoded(ob, payload) != nil {
			return false
		}
		if id := ob.Int(4, 0); !seen[id] {
			seen[id] = true
			items = append(items, id)
		}
		return true
	}); err != nil {
		return err
	}
	low := 0
	for _, item := range items {
		stock, ok, err := d.get(p, s, sc, TStock, int64(w), item)
		if err != nil {
			return err
		}
		if ok && stock.Int(2, 0) < threshold {
			low++
		}
	}
	_ = low
	return nil
}

func orErr(err error, format string, args ...any) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("tpcc: "+format, args...)
}
