(* Packed mode (§5.1): the application supplies pack/unpack functions that
   turn a message into "a standard byte-stream transport format" of its own
   choosing. The paper's implementation used a character representation built
   with machine-independent constructs (sprintf/sscanf); this module provides
   the same thing as composable codecs, plus the equivalent of Schlegel's
   generator that derives pack/unpack directly from a message structure
   definition (a {!Layout.t}).

   Transport format: each value is rendered as a decimal/escaped-text token
   terminated by '\n'. Machine representation never leaks into the bytes,
   so byte ordering problems "do not arise, since the message is viewed as a
   byte stream". *)

exception Unpack_error of string

type cursor = { data : Bytes.t; mutable pos : int }

let token cur =
  if cur.pos >= Bytes.length cur.data then raise (Unpack_error "unexpected end of packed data");
  match Bytes.index_from_opt cur.data cur.pos '\n' with
  | None -> raise (Unpack_error "unterminated token")
  | Some i ->
    let tok = Bytes.sub_string cur.data cur.pos (i - cur.pos) in
    cur.pos <- i + 1;
    tok

let take_raw cur n =
  (* Written so a hostile length near [max_int] cannot overflow the sum. *)
  if n > Bytes.length cur.data - cur.pos then raise (Unpack_error "truncated raw block");
  let s = Bytes.sub_string cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  (* raw blocks are '\n'-terminated for symmetry *)
  if cur.pos >= Bytes.length cur.data || Bytes.get cur.data cur.pos <> '\n' then
    raise (Unpack_error "missing raw block terminator");
  cur.pos <- cur.pos + 1;
  s

(* Decimal digits of [n <= 0], most significant first: the non-positive
   side holds [min_int], and the constant divisor compiles to a multiply. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* The bytes of [string_of_int v ^ "\n"], written straight into [buf]. *)
let add_int buf v =
  if v < 0 then (
    Buffer.add_char buf '-';
    add_digits buf v)
  else add_digits buf (-v);
  Buffer.add_char buf '\n'

let int_token cur =
  let tok = token cur in
  match int_of_string_opt tok with
  | Some v -> v
  | None -> raise (Unpack_error (Printf.sprintf "bad integer token %S" tok))

(* A canonical [-?[0-9]+] token in range is parsed in place, accumulating the
   non-positive value so [min_int] fits. Anything else, every error included,
   goes through [int_token], so the accepted tokens are [int_of_string_opt]'s. *)
let rec int_digits cur neg i acc =
  if i >= Bytes.length cur.data then int_token cur
  else
    match Bytes.unsafe_get cur.data i with
    | '0' .. '9' as c ->
      let d = Char.code c - 48 in
      if acc < (min_int + d) / 10 then int_token cur else int_digits cur neg (i + 1) ((acc * 10) - d)
    | '\n' when i > cur.pos + Bool.to_int neg && (neg || acc <> min_int) ->
      cur.pos <- i + 1;
      if neg then acc else -acc
    | _ -> int_token cur

let read_int cur =
  let neg = cur.pos < Bytes.length cur.data && Bytes.get cur.data cur.pos = '-' in
  int_digits cur neg (cur.pos + Bool.to_int neg) 0

(* Strings go length-prefixed + raw so they may contain any byte. *)
let add_string buf v =
  add_int buf (String.length v);
  Buffer.add_string buf v;
  Buffer.add_char buf '\n'

let read_string cur =
  let n = read_int cur in
  if n < 0 then raise (Unpack_error "negative string length");
  take_raw cur n

type 'a t = {
  pack : Buffer.t -> 'a -> unit;
  unpack : cursor -> 'a;
}

let run_pack codec v =
  let buf = Buffer.create 64 in
  codec.pack buf v;
  Buffer.to_bytes buf

let run_unpack codec data =
  let cur = { data; pos = 0 } in
  let v = codec.unpack cur in
  if cur.pos <> Bytes.length data then raise (Unpack_error "trailing bytes after message");
  v

let run_unpack_result codec data =
  match run_unpack codec data with
  | v -> Ok v
  | exception Unpack_error msg -> Error msg

(* --- primitive codecs --- *)

let int = { pack = add_int; unpack = read_int }

let bool =
  {
    pack = (fun buf v -> Buffer.add_string buf (if v then "T\n" else "F\n"));
    unpack =
      (fun cur ->
        match token cur with
        | "T" -> true
        | "F" -> false
        | tok -> raise (Unpack_error (Printf.sprintf "bad boolean token %S" tok)));
  }

let float =
  {
    pack =
      (fun buf v ->
        (* %h is exact and locale-independent — the moral equivalent of the
           paper's sprintf-based machine independence. *)
        Buffer.add_string buf (Printf.sprintf "%h\n" v));
    unpack =
      (fun cur ->
        let tok = token cur in
        match float_of_string_opt tok with
        | Some v -> v
        | None -> raise (Unpack_error (Printf.sprintf "bad float token %S" tok)));
  }

let string = { pack = add_string; unpack = read_string }

(* --- combinators --- *)

let list ?(max = max_int) item =
  {
    pack =
      (fun buf vs ->
        add_int buf (List.length vs);
        List.iter (item.pack buf) vs);
    unpack =
      (fun cur ->
        let n = read_int cur in
        if n < 0 then raise (Unpack_error "negative list length");
        if n > max then raise (Unpack_error (Printf.sprintf "list length %d above %d" n max));
        List.init n (fun _ -> item.unpack cur));
  }

let pair a b =
  {
    pack =
      (fun buf (x, y) ->
        a.pack buf x;
        b.pack buf y);
    unpack =
      (fun cur ->
        let x = a.unpack cur in
        let y = b.unpack cur in
        (x, y));
  }

let triple a b c =
  {
    pack =
      (fun buf (x, y, z) ->
        a.pack buf x;
        b.pack buf y;
        c.pack buf z);
    unpack =
      (fun cur ->
        let x = a.unpack cur in
        let y = b.unpack cur in
        let z = c.unpack cur in
        (x, y, z));
  }

let option item =
  {
    pack =
      (fun buf v ->
        match v with
        | None -> bool.pack buf false
        | Some x ->
          bool.pack buf true;
          item.pack buf x);
    unpack =
      (fun cur -> if bool.unpack cur then Some (item.unpack cur) else None);
  }

(* Map a codec through an isomorphism: how record types get their codecs. *)
let iso ~fwd ~bwd codec =
  {
    pack = (fun buf v -> codec.pack buf (bwd v));
    unpack = (fun cur -> fwd (codec.unpack cur));
  }

let unit = { pack = (fun _ () -> ()); unpack = (fun _ -> ()) }

(* Tagged unions: each case is a tag plus a codec for its payload, embedded
   into the union by a partial isomorphism ([inj] total, [prj] partial).
   The payload type is hidden, so one list holds every case. *)
type 'a case = Case : string * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case tag codec inj prj = Case (tag, codec, inj, prj)

let tagged cases =
  {
    pack =
      (fun buf v ->
        let rec go = function
          | [] -> invalid_arg "Packed.tagged: no case accepts this value"
          | Case (tag, codec, _, prj) :: rest -> (
            match prj v with
            | Some x ->
              add_string buf tag;
              codec.pack buf x
            | None -> go rest)
        in
        go cases);
    unpack =
      (fun cur ->
        let tag = read_string cur in
        let rec go = function
          | [] -> raise (Unpack_error (Printf.sprintf "unknown tag %S" tag))
          | Case (t, codec, inj, _) :: rest ->
            if String.equal t tag then inj (codec.unpack cur) else go rest
        in
        go cases);
  }

(* --- the structure-definition generator (Schlegel [22]) ---

   Given the same {!Layout.t} that drives image mode, generate the packed
   codec for its value list. Applications that describe their messages once
   get both modes for free. *)

(* Both directions accept only what [Layout.check] does, the values image
   mode can carry, so the mode the NTCS picks never changes what arrives.
   One walk over the layout per message: no per-field codec is built. *)
let rec pack_values buf fields values =
  match (fields, values) with
  | [], [] -> ()
  | field :: fields, v :: values ->
    (match Layout.check field v with Some msg -> invalid_arg ("packed: " ^ msg) | None -> ());
    (match v with Layout.V_int n -> add_int buf n | Layout.V_str s -> add_string buf s);
    pack_values buf fields values
  | [], _ :: _ | _ :: _, [] -> invalid_arg "packed: value count does not match layout"

let read_value cur field =
  let v =
    match field with
    | Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64 -> Layout.V_int (read_int cur)
    | Layout.F_char_array _ -> Layout.V_str (read_string cur)
  in
  match Layout.check field v with None -> v | Some msg -> raise (Unpack_error msg)

let of_layout (layout : Layout.t) : Layout.value list t =
  {
    pack = (fun buf values -> pack_values buf layout values);
    unpack = (fun cur -> List.map (read_value cur) layout);
  }
