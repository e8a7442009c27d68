(* Small LRU cache over a Hashtbl plus a doubly-linked recency list.
   Used by the naming plane's versioned lookup cache ([Ns_cache]). *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
}

let create capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Hashtbl.create 16; head = None; tail = None }

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with
   | Some h -> h.prev <- Some node
   | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
    unlink t node;
    push_front t node;
    Some node.value

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key

let set t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    node.value <- value;
    unlink t node;
    push_front t node
  | None ->
    if Hashtbl.length t.table >= t.capacity then evict_lru t;
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace t.table key node;
    push_front t node

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table key

(* Predicate eviction: drop every entry [pred] selects, preserving the
   recency order of the survivors (nodes are unlinked in place; the list
   spine of the keepers is untouched). Walks the recency list so the
   decision order is deterministic (MRU first), like [iter]. *)
let invalidate_if t pred =
  let dropped = ref 0 in
  let rec go = function
    | None -> ()
    | Some node ->
      let next = node.next in
      if pred node.key node.value then begin
        unlink t node;
        Hashtbl.remove t.table node.key;
        incr dropped
      end;
      go next
  in
  go t.head;
  !dropped

let length t = Hashtbl.length t.table

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

(* Walk the recency list, not the backing table: callers observe a
   deterministic, meaningful order (most recently used first) instead of
   whatever the Hashtbl happens to produce. *)
let iter t f =
  let rec go = function
    | None -> ()
    | Some node ->
      let next = node.next in
      f node.key node.value;
      go next
  in
  go t.head
