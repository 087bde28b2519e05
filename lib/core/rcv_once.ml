(* At-most-once rcv outputs: per receiver, (origin, highest seq output)
   pairs in one flat int array, sorted by origin.  See the interface for
   the ordering contract that makes one seq per origin enough. *)

type t = {
  rows : int array array; (* per receiver: origin0, seq0, origin1, seq1, ... *)
  lens : int array;       (* pairs in use in each row *)
}

let create n = { rows = Array.make n [||]; lens = Array.make n 0 }

(* The index of the first pair in [r.(0 .. len - 1)] whose origin is at
   least [origin]. *)
let search (r : int array) len origin =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if r.(2 * mid) < origin then lo := mid + 1 else hi := mid
  done;
  !lo

(* Insert the pair (origin, seq) at index [i], doubling the row when it is
   full. *)
let insert t ~node i ~origin ~seq =
  let r = t.rows.(node) and len = t.lens.(node) in
  let r =
    if 2 * (len + 1) <= Array.length r then r
    else begin
      let r' = Array.make (Int.max 8 (2 * Array.length r)) 0 in
      Array.blit r 0 r' 0 (2 * len);
      t.rows.(node) <- r';
      r'
    end
  in
  Array.blit r (2 * i) r (2 * (i + 1)) (2 * (len - i));
  r.(2 * i) <- origin;
  r.((2 * i) + 1) <- seq;
  t.lens.(node) <- len + 1

let admit t ~node (m : Events.payload) =
  let origin = m.origin and seq = m.seq in
  origin <> node
  &&
  let r = t.rows.(node) and len = t.lens.(node) in
  let i = search r len origin in
  if i < len && r.(2 * i) = origin then begin
    let last = r.((2 * i) + 1) in
    if seq = last then false
    else if seq > last then begin
      r.((2 * i) + 1) <- seq;
      true
    end
    else
      invalid_arg
        (Printf.sprintf
           "Rcv_once.admit: node %d got seq %d of origin %d after seq %d" node
           seq origin last)
  end
  else begin
    insert t ~node i ~origin ~seq;
    true
  end

let words t ~node = Array.length t.rows.(node)
