(* Open-loop request generator: request [i] is due at [t0 + i / rate]
   whatever happened to earlier requests, so a stall in the server
   shows up as latency on every request that fell due during it.
   Latency is timed from the due time, not the send time, and the
   generator's own lateness (send minus due) is recorded separately.
   The clock is passed in, so the schedule is testable without
   sockets. *)

type t = {
  rate : float;
  t0 : float;
  mutable limit : int;  (* requests that may ever be issued *)
  mutable next : int;  (* first request not yet issued *)
  due_at : (int, float) Hashtbl.t;  (* issued, unanswered *)
  mutable late : float list;  (* seconds, per issued request *)
}

let create ~rate ~t0 ~limit =
  if rate <= 0.0 then invalid_arg "Openloop.create: rate must be positive";
  {
    rate;
    t0;
    limit;
    next = 0;
    due_at = Hashtbl.create 64;
    late = [];
  }

let due t i = t.t0 +. (float_of_int i /. t.rate)

(* Every request due by [now] and not yet issued, in order.  The
   caller sends them at once; each is charged lateness [now - due]. *)
let take_due t ~now =
  let rec go acc =
    if t.next < t.limit && due t t.next <= now then begin
      let i = t.next in
      t.next <- i + 1;
      Hashtbl.replace t.due_at i (due t i);
      t.late <- (now -. due t i) :: t.late;
      go (i :: acc)
    end
    else List.rev acc
  in
  go []

(* Seconds until the next request falls due; [None] once all are
   issued or {!close} has ended issuing. *)
let wait t ~now =
  if t.next >= t.limit then None else Some (Float.max 0.0 (due t t.next -. now))

(* Stop issuing: later requests are never sent (and never counted). *)
let close t = t.limit <- t.next

(* Latency of request [id] answered at [now], from its due time; [None]
   for an id not outstanding. *)
let answer t ~id ~now =
  match Hashtbl.find_opt t.due_at id with
  | None -> None
  | Some d ->
      Hashtbl.remove t.due_at id;
      Some (now -. d)

let issued t = t.next
let outstanding t = Hashtbl.length t.due_at
let lateness t = List.rev t.late
