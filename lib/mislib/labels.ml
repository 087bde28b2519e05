(* Temporary random labels (paper Section 9.3.2).

   To localize the MIS runtime, each node draws a fresh label uniformly from
   [1, poly(Lambda / eps_approg)] in every phase, instead of using a unique
   network-wide ID.  Collisions are possible and the rest of the machinery
   tolerates them (Lemma 10.1 bounds their local probability). *)

open Sinr_geom

(* Bits so that the label range is (Lambda/eps)^exponent, capped to stay in
   native-int bit-reduction territory. *)
let bits_for ?(exponent = 3.0) ~lambda ~eps_approg () =
  if lambda < 1. then invalid_arg "Labels.bits_for: lambda < 1";
  if eps_approg <= 0. || eps_approg >= 1. then
    invalid_arg "Labels.bits_for: eps_approg not in (0,1)";
  let range = (lambda /. eps_approg) ** exponent in
  let bits = int_of_float (Float.ceil (Float.log2 (Float.max 2. range))) in
  max 4 (min 24 bits)

(* One fresh label per participant, drawn in list order. *)
let draw_into rng labels ~participants ~bits =
  List.iter (fun v -> labels.(v) <- 1 + Rng.int rng ((1 lsl bits) - 1)) participants

(* Non-participants get label 0 (never used). *)
let draw rng ~n ~participants ~bits =
  let labels = Array.make n 0 in
  draw_into rng labels ~participants ~bits;
  labels

(* Unique labels in [1, n] for baseline comparisons (the unmodified
   algorithm of [47] with network-wide IDs, as used by DGKN14). *)
let unique ~n ~participants =
  let labels = Array.make n 0 in
  List.iteri (fun i v -> labels.(v) <- i + 1) participants;
  labels
