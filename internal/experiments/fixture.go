package experiments

import (
	"wattdb/internal/cluster"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// microTable is the loaded table Figs. 1–3 measure: a two-node cluster with
// node 1 forced active, holding table t of (k int64, v string) owned by
// node 0.
type microTable struct {
	env    *sim.Env
	c      *cluster.Cluster
	schema *table.Schema
	tm     *cluster.TableMeta
}

// newMicroTable builds the fixture with frames buffer frames per node and t
// under scheme, bulk-loaded with keys 0…rows−1, each carrying payload. The
// caller closes env.
func newMicroTable(seed int64, frames int, scheme table.Scheme, rows int, payload string) (*microTable, error) {
	env := sim.NewEnv(seed)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.Cal.BufferFrames = frames
	c := cluster.New(env, cfg)
	c.Nodes[1].HW.ForceActive()
	mt := &microTable{env: env, c: c, schema: &table.Schema{
		ID: 1, Name: "t", KeyCols: 1,
		Columns: []table.Column{{Name: "k", Type: table.ColInt64}, {Name: "v", Type: table.ColString}},
	}}
	if err := mt.load(scheme, rows, payload); err != nil {
		env.Close()
		return nil, err
	}
	return mt, nil
}

func (mt *microTable) load(scheme table.Scheme, rows int, payload string) error {
	m := mt.c.Master
	if _, err := m.CreateTable(mt.schema, scheme, []cluster.RangeSpec{{Owner: mt.c.Nodes[0]}}); err != nil {
		return err
	}
	var loadErr error
	mt.env.Spawn("load", func(p *sim.Proc) {
		row := table.NewBatch(mt.schema)
		row.AppendZero()
		row.SetBytes(1, 0, []byte(payload))
		i := 0
		loadErr = m.BulkLoad(p, "t", func() ([]byte, []byte, bool) {
			if i >= rows {
				return nil, nil, false
			}
			row.SetInt(0, 0, int64(i))
			key, _ := mt.schema.AppendKey(nil, row, 0)
			enc, _ := mt.schema.AppendEncoded(nil, row, 0)
			i++
			return key, enc, true
		})
	})
	if err := mt.env.Run(); err != nil {
		return err
	}
	if loadErr != nil {
		return loadErr
	}
	var err error
	mt.tm, err = m.Table("t")
	return err
}

// loadTPCC deploys the preset's TPC-C database on c under scheme, warehouses
// 1…W/2 on node 0 and the rest on node 1, and loads it.
func loadTPCC(c *cluster.Cluster, pre Preset, scheme table.Scheme) (*tpcc.Deployment, error) {
	tcfg := tpcc.Config{
		Warehouses:           pre.Warehouses,
		DistrictsPerW:        pre.DistrictsPerW,
		CustomersPerDistrict: pre.CustomersPerDistrict,
		Items:                pre.Items,
		InitialOrdersPerDist: pre.InitialOrdersPerDist,
		Seed:                 pre.Seed,
	}
	W := pre.Warehouses
	dep, err := tpcc.Deploy(c.Master, tcfg, scheme, []tpcc.WarehouseRange{
		{FromW: 1, ToW: W / 2, Owner: c.Nodes[0]},
		{FromW: W/2 + 1, ToW: W, Owner: c.Nodes[1]},
	}, c.Nodes)
	if err != nil {
		return nil, err
	}
	var loadErr error
	c.Env.Spawn("load", func(p *sim.Proc) { loadErr = dep.Load(p) })
	if err := c.Env.Run(); err != nil {
		return nil, err
	}
	return dep, loadErr
}
