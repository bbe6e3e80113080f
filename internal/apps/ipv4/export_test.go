package ipv4

// Size returns (TBL24 entries, TBLlong blocks).
func (t *Table) Size() (int, int) { return len(t.tbl24), len(t.tblLong) / 256 }
