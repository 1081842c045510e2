"""The five TPC-C transaction types as DAST stored procedures.

Every body is deterministic given the transaction's parameters and the
database state (required by §4.1): all randomness is drawn at generation
time and baked into the parameters.

Cross-shard structure (matching the paper's analysis):

* **new-order** — home piece (district bump, order/new-order/order-line
  inserts) plus one *independent* stock piece per remote supply warehouse;
  no value dependencies.  ~1% of orders reference an invalid item and roll
  back via the conditional-abort protocol: every piece evaluates the same
  item-validity predicate (the item catalog is replicated on all shards).
* **payment** — home piece (warehouse/district YTD), customer piece at the
  customer's warehouse (60% selected *by last name* via a secondary index),
  then a history piece back at home that needs the resolved customer id —
  the cross-region **value dependency** the paper singles out as the cause
  of FCFS systems' IRT tail.
* **order-status / delivery / stock-level** — always single-warehouse (IRTs,
  Table 2 shows 0% CRT ratio for all three).
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

from repro.txn.model import Piece, Transaction
from repro.workloads.tpcc.schema import DISTRICTS_PER_WAREHOUSE, ITEMS

__all__ = [
    "build_new_order",
    "build_payment",
    "build_order_status",
    "build_delivery",
    "build_stock_level",
]

_history_ids = itertools.count(1)


def _shard(topology, w_id: int) -> str:
    return topology.shard_name(w_id)


# ----------------------------------------------------------------------
# new-order
# ----------------------------------------------------------------------
def build_new_order(
    topology,
    w_id: int,
    d_id: int,
    c_id: int,
    lines: Sequence[Tuple[int, int, int]],
    now: float = 0.0,
) -> Transaction:
    """``lines``: (item_id, supply_w_id, quantity); item_id >= ITEMS marks
    the spec's 1% invalid-item rollback case."""
    item_ids = [i for i, _sw, _q in lines]

    def home_body(ctx) -> None:
        items = []
        for i_id in item_ids:
            item = ctx.store.try_get("item", (i_id,))
            if item is None:
                ctx.abort("invalid item")
            items.append(item)
        ctx.store.get("warehouse", (w_id,))
        district = ctx.store.get("district", (w_id, d_id))
        o_id = district["d_next_o_id"]
        ctx.store.update("district", (w_id, d_id), {"d_next_o_id": o_id + 1})
        ctx.store.insert(
            "orders",
            {
                "o_w_id": w_id, "o_d_id": d_id, "o_id": o_id, "o_c_id": c_id,
                "o_carrier_id": None, "o_ol_cnt": len(lines), "o_entry_ts": now,
            },
        )
        ctx.store.insert("new_order", {"no_w_id": w_id, "no_d_id": d_id, "no_o_id": o_id})
        total = 0.0
        for number, ((i_id, supply_w, qty), item) in enumerate(zip(lines, items)):
            amount = item["i_price"] * qty
            total += amount
            ctx.store.insert(
                "order_line",
                {
                    "ol_w_id": w_id, "ol_d_id": d_id, "ol_o_id": o_id,
                    "ol_number": number, "ol_i_id": i_id,
                    "ol_supply_w_id": supply_w, "ol_quantity": qty,
                    "ol_amount": amount, "ol_delivery_ts": None,
                },
            )
            if supply_w == w_id:
                _update_stock(ctx.store, w_id, i_id, qty, remote=False)
        ctx.put("o_id", o_id)
        ctx.put("total_amount", total)

    def stock_body_for(supply_w: int, supply_lines: List[Tuple[int, int]]) -> Callable:
        def body(ctx) -> None:
            for i_id in item_ids:
                # Same predicate as the home piece: items are replicated, so
                # every participant reaches the same rollback decision.
                if ctx.store.try_get("item", (i_id,)) is None:
                    ctx.abort("invalid item")
            for i_id, qty in supply_lines:
                _update_stock(ctx.store, supply_w, i_id, qty, remote=True)

        return body

    pieces = [
        Piece(
            0, _shard(topology, w_id), home_body,
            produces=("o_id", "total_amount"),
            name="new_order_home",
            lock_keys=(("district", w_id, d_id),),
        )
    ]
    remote_lines: dict = {}
    for i_id, supply_w, qty in lines:
        if supply_w != w_id:
            remote_lines.setdefault(supply_w, []).append((i_id, qty))
    for idx, (supply_w, supply) in enumerate(sorted(remote_lines.items()), start=1):
        pieces.append(
            Piece(
                idx, _shard(topology, supply_w), stock_body_for(supply_w, supply),
                name=f"new_order_stock_w{supply_w}",
                lock_keys=tuple(("stock", supply_w, i) for i, _q in supply),
            )
        )
    return Transaction(
        "new_order", pieces,
        params={"w_id": w_id, "d_id": d_id, "c_id": c_id, "lines": list(lines)},
    )


def _update_stock(store, w_id: int, i_id: int, qty: int, remote: bool) -> None:
    stock = store.get("stock", (w_id, i_id))
    quantity = stock["s_quantity"] - qty
    if quantity < 10:
        quantity += 91
    changes = {
        "s_quantity": quantity,
        "s_ytd": stock["s_ytd"] + qty,
        "s_order_cnt": stock["s_order_cnt"] + 1,
    }
    if remote:
        changes["s_remote_cnt"] = stock["s_remote_cnt"] + 1
    store.update("stock", (w_id, i_id), changes)


# ----------------------------------------------------------------------
# payment
# ----------------------------------------------------------------------
def build_payment(
    topology,
    w_id: int,
    d_id: int,
    c_w_id: int,
    c_d_id: int,
    amount: float,
    c_id: Optional[int] = None,
    c_last: Optional[str] = None,
) -> Transaction:
    """Exactly one of ``c_id`` (40%) / ``c_last`` (60%, by-name) is given."""
    if (c_id is None) == (c_last is None):
        raise ValueError("payment selects the customer by id XOR by last name")
    by_name = c_last is not None
    h_id = next(_history_ids)

    def home_body(ctx) -> None:
        warehouse = ctx.store.get("warehouse", (w_id,))
        ctx.store.update("warehouse", (w_id,), {"w_ytd": warehouse["w_ytd"] + amount})
        district = ctx.store.get("district", (w_id, d_id))
        ctx.store.update("district", (w_id, d_id), {"d_ytd": district["d_ytd"] + amount})
        ctx.put("w_name", warehouse["w_name"])
        ctx.put("d_name", district["d_name"])

    def customer_body(ctx) -> None:
        if by_name:
            keys = ctx.store.lookup("customer", "by_last", (c_w_id, c_d_id, c_last))
            if not keys:
                ctx.abort("no customer with that last name")
            key = keys[(len(keys)) // 2]  # spec: the "middle" match
            resolved = key[2]
        else:
            resolved = c_id
        customer = ctx.store.get("customer", (c_w_id, c_d_id, resolved))
        changes = {
            "c_balance": customer["c_balance"] - amount,
            "c_ytd_payment": customer["c_ytd_payment"] + amount,
            "c_payment_cnt": customer["c_payment_cnt"] + 1,
        }
        if customer["c_credit"] == "BC":
            data = f"{resolved},{c_d_id},{c_w_id},{d_id},{w_id},{amount:.2f};" + customer["c_data"]
            changes["c_data"] = data[:500]
        ctx.store.update("customer", (c_w_id, c_d_id, resolved), changes)
        ctx.put("resolved_c_id", resolved)

    def history_body(ctx) -> None:
        # By-id payments know the customer id from the parameters; only the
        # by-name path needs the id resolved at the customer's shard — which
        # is what makes ~60% of payment CRTs carry a value dependency
        # (Tables 3/4: "payment-by-name ... cross-region value dependency").
        resolved = ctx.inputs["resolved_c_id"] if by_name else c_id
        ctx.store.insert(
            "history",
            {
                "h_id": h_id,
                "h_c_id": resolved,
                "h_c_w_id": c_w_id, "h_c_d_id": c_d_id,
                "h_w_id": w_id, "h_d_id": d_id,
                "h_amount": amount,
                "h_data": f"{ctx.inputs['w_name']} {ctx.inputs['d_name']}",
            },
        )

    home_shard = _shard(topology, w_id)
    cust_shard = _shard(topology, c_w_id)
    customer_locks = (
        (("customer_block", c_w_id, c_d_id),)
        if by_name
        else (("customer_block", c_w_id, c_d_id), ("customer", c_w_id, c_d_id, c_id))
    )
    pieces = [
        Piece(
            0, home_shard, home_body,
            produces=("w_name", "d_name"),
            name="payment_home",
            lock_keys=(("warehouse", w_id), ("district", w_id, d_id)),
        ),
        Piece(
            1, cust_shard, customer_body,
            produces=("resolved_c_id",),
            name="payment_customer",
            lock_keys=customer_locks,
        ),
        Piece(
            2, home_shard, history_body,
            needs=(("resolved_c_id",) if by_name else ()) + ("w_name", "d_name"),
            name="payment_history",
        ),
    ]
    return Transaction(
        "payment", pieces,
        params={
            "w_id": w_id, "d_id": d_id, "c_w_id": c_w_id, "c_d_id": c_d_id,
            "amount": amount, "by_name": by_name,
        },
    )


# ----------------------------------------------------------------------
# order-status (read-only, always home)
# ----------------------------------------------------------------------
def build_order_status(
    topology,
    w_id: int,
    d_id: int,
    c_id: Optional[int] = None,
    c_last: Optional[str] = None,
) -> Transaction:
    if (c_id is None) == (c_last is None):
        raise ValueError("order-status selects the customer by id XOR by last name")

    def body(ctx) -> None:
        if c_last is not None:
            keys = ctx.store.lookup("customer", "by_last", (w_id, d_id, c_last))
            if not keys:
                ctx.abort("no customer with that last name")
            resolved = keys[len(keys) // 2][2]
        else:
            resolved = c_id
        customer = ctx.store.get("customer", (w_id, d_id, resolved))
        order_keys = ctx.store.lookup("orders", "by_customer", (w_id, d_id, resolved))
        ctx.put("c_balance", customer["c_balance"])
        if not order_keys:
            ctx.put("last_order", None)
            ctx.put("lines", [])
            return
        last_key = order_keys[-1]
        order = ctx.store.get("orders", last_key)
        lines = []
        for number in range(order["o_ol_cnt"]):
            line = ctx.store.try_get("order_line", (w_id, d_id, order["o_id"], number))
            if line is not None:
                lines.append((line["ol_i_id"], line["ol_quantity"], line["ol_amount"]))
        ctx.put("last_order", order["o_id"])
        ctx.put("lines", lines)

    piece = Piece(
        0, _shard(topology, w_id), body,
        produces=("c_balance", "last_order", "lines"),
        writes=False, name="order_status",
    )
    return Transaction("order_status", [piece], params={"w_id": w_id, "d_id": d_id})


# ----------------------------------------------------------------------
# delivery (home-only batch over all districts)
# ----------------------------------------------------------------------
def build_delivery(topology, w_id: int, carrier_id: int, now: float = 0.0) -> Transaction:
    def body(ctx) -> None:
        delivered = []
        for d_id in range(DISTRICTS_PER_WAREHOUSE):
            pending = ctx.store.scan_prefix("new_order", (w_id, d_id))
            if not pending:
                continue
            no_key = pending[0]  # oldest undelivered order
            o_id = no_key[2]
            ctx.store.delete("new_order", no_key)
            order = ctx.store.get("orders", (w_id, d_id, o_id))
            ctx.store.update(
                "orders", (w_id, d_id, o_id), {"o_carrier_id": carrier_id}
            )
            total = 0.0
            for number in range(order["o_ol_cnt"]):
                line = ctx.store.try_get("order_line", (w_id, d_id, o_id, number))
                if line is None:
                    continue
                total += line["ol_amount"]
                ctx.store.update(
                    "order_line", (w_id, d_id, o_id, number), {"ol_delivery_ts": now}
                )
            customer = ctx.store.get("customer", (w_id, d_id, order["o_c_id"]))
            ctx.store.update(
                "customer",
                (w_id, d_id, order["o_c_id"]),
                {
                    "c_balance": customer["c_balance"] + total,
                    "c_delivery_cnt": customer["c_delivery_cnt"] + 1,
                },
            )
            delivered.append((d_id, o_id))
        ctx.put("delivered", delivered)

    piece = Piece(
        0, _shard(topology, w_id), body,
        produces=("delivered",), name="delivery",
        lock_keys=tuple(
            key
            for d_id in range(DISTRICTS_PER_WAREHOUSE)
            for key in (("district", w_id, d_id), ("customer_block", w_id, d_id))
        ),
    )
    return Transaction("delivery", [piece], params={"w_id": w_id, "carrier": carrier_id})


# ----------------------------------------------------------------------
# stock-level (read-only, always home)
# ----------------------------------------------------------------------
def build_stock_level(topology, w_id: int, d_id: int, threshold: int) -> Transaction:
    def body(ctx) -> None:
        district = ctx.store.get("district", (w_id, d_id))
        next_o_id = district["d_next_o_id"]
        items = set()
        for o_id in range(max(0, next_o_id - 20), next_o_id):
            order = ctx.store.try_get("orders", (w_id, d_id, o_id))
            if order is None:
                continue
            for number in range(order["o_ol_cnt"]):
                line = ctx.store.try_get("order_line", (w_id, d_id, o_id, number))
                if line is not None:
                    items.add(line["ol_i_id"])
        low = sum(
            1
            for i_id in sorted(items)
            if ctx.store.get("stock", (w_id, i_id))["s_quantity"] < threshold
        )
        ctx.put("low_stock", low)

    piece = Piece(
        0, _shard(topology, w_id), body,
        produces=("low_stock",), writes=False, name="stock_level",
    )
    return Transaction(
        "stock_level", [piece], params={"w_id": w_id, "d_id": d_id, "threshold": threshold}
    )
