(* Flat per-node engine state: bit-packed fault/wake maps and reusable
   slot scratch.

   The seed engine carried two [bool array]s (a word per node each) and
   allocated a fresh [n]-slot message array plus a sender list every
   slot.  At n = 10^6 that is 16 MB of bitmap traffic and ~8 MB of
   allocation per slot before any physics runs.  Here awake/crashed are
   Bytes-backed bitmaps (a bit per node, 125 KB each at 10^6) and the
   per-slot buffers — senders, messages and the resolution output — are
   allocated once and recycled: the engine clears exactly the entries it
   wrote. *)

module Bits = struct
  type t = { nbits : int; b : Bytes.t }

  let create nbits = { nbits; b = Bytes.make ((nbits + 7) / 8) '\000' }

  let length t = t.nbits

  let[@inline] get t i =
    Char.code (Bytes.unsafe_get t.b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let[@inline] set t i v =
    let byte = i lsr 3 in
    let bit = 1 lsl (i land 7) in
    let cur = Char.code (Bytes.unsafe_get t.b byte) in
    let next = if v then cur lor bit else cur land lnot bit in
    Bytes.unsafe_set t.b byte (Char.unsafe_chr next)

  let clear t = Bytes.fill t.b 0 (Bytes.length t.b) '\000'
end

type 'm t = {
  n : int;
  awake : Bits.t;
  crashed : Bits.t;
  senders : int array;          (* slot scratch: ids of this slot's transmitters *)
  messages : 'm option array;   (* slot scratch: per-node offered message;
                                   set for the last slot's senders until the
                                   next slot clears exactly those entries *)
  decoded : Sinr_phys.Sinr.decoded;
                                (* slot scratch: the last slot's resolution
                                   output, read in place; cleared in
                                   O(receivers) when the next slot starts *)
}

let create n =
  if n <= 0 then invalid_arg "State.create: n must be positive";
  { n;
    awake = Bits.create n;
    crashed = Bits.create n;
    senders = Array.make n 0;
    messages = Array.make n None;
    decoded = Sinr_phys.Sinr.create_decoded n }

let n t = t.n
