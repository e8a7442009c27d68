(* Bounded FIFO queue. Models the finite buffering of mailboxes and gateway
   queues: once full, pushes are refused and the caller decides whether that
   means back-pressure or a dropped message. *)

type 'a t = {
  capacity : int;
  items : 'a Queue.t;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Bqueue.create: capacity must be positive";
  { capacity; items = Queue.create () }

let is_full t = Queue.length t.items >= t.capacity

let push t x =
  if is_full t then false
  else begin
    Queue.push x t.items;
    true
  end

let pop t = Queue.take_opt t.items

let iter t f = Queue.iter f t.items

(* The ring idiom: once full, the oldest item makes room. *)
let push_evict t x =
  if is_full t then ignore (Queue.take t.items);
  Queue.push x t.items

let newest t n =
  let skip = Queue.length t.items - n in
  snd
    (Queue.fold (fun (i, acc) x -> (i + 1, if i >= skip then x :: acc else acc)) (0, []) t.items)
  |> List.rev
