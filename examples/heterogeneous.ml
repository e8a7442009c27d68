(* Heterogeneous data conversion (§5): the same typed message sent VAX->VAX
   travels as a raw byte copy (image mode), and VAX->Sun as a converted
   character stream (packed mode). The application describes the structure
   once; the NTCS picks the mode at the lowest layer, per destination.

   Also demonstrates what the machinery prevents: reinterpreting a VAX
   memory image with Sun byte order garbles every integer.

   Run with: dune exec examples/heterogeneous.exe *)

open Ntcs
open Ntcs_wire

(* The application's message structure definition — one description yields
   both the native image layout and the generated pack/unpack codec. *)
module Sensor_msg = struct
  type t = { station : string; reading : int; scale : int }

  let app_tag = 7
  let layout = Layout.[ F_char_array 12; F_i32; F_i16 ]

  let to_values v = Layout.[ V_str v.station; V_int v.reading; V_int v.scale ]

  let of_values = function
    | Layout.[ V_str station; V_int reading; V_int scale ] -> { station; reading; scale }
    | _ -> invalid_arg "sensor message shape"
end

let () =
  (* First, the hazard in isolation: image bytes across byte orders. *)
  let img =
    Layout.encode ~order:Endian.Le [ Layout.F_i32 ] [ Layout.V_int 76543 ]
  in
  (match Layout.decode ~order:Endian.Be [ Layout.F_i32 ] img with
   | [ Layout.V_int garbled ] ->
     Printf.printf "a VAX writes 76543; a Sun reading the raw image sees %d\n\n" garbled
   | _ -> ());

  let cluster =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("vax2", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
        ]
      ~ns:"vax1" ()
  in
  Cluster.settle cluster;

  let readings = Queue.create () in
  let receiver machine name =
    ignore
      (Cluster.spawn cluster ~machine ~name (fun node ->
           match Commod.bind node ~name with
           | Error _ -> ()
           | Ok commod -> (
             match Ali_layer.receive commod with
             | Ok env -> (
               match Typed_msg.decode (module Sensor_msg) commod env with
               | Ok v ->
                 Queue.push
                   (Printf.sprintf "[%s] station=%s reading=%d scale=%d (arrived in %s mode)"
                      name v.Sensor_msg.station v.Sensor_msg.reading v.Sensor_msg.scale
                      (Convert.mode_to_string env.Ali_layer.mode))
                   readings
               | Error e -> Printf.printf "[%s] decode failed: %s\n" name (Errors.to_string e))
             | Error _ -> ())))
  in
  receiver "vax2" "vax-receiver";
  receiver "sun1" "sun-receiver";
  Cluster.settle cluster;

  ignore
    (Cluster.spawn cluster ~machine:"vax1" ~name:"sensor" (fun node ->
         match Commod.bind node ~name:"sensor" with
         | Error _ -> ()
         | Ok commod ->
           let send_to name =
             match Ali_layer.locate commod name with
             | Error e -> Printf.printf "locate %s: %s\n" name (Errors.to_string e)
             | Ok addr ->
               ignore
                 (Typed_msg.send (module Sensor_msg) commod ~dst:addr
                    { Sensor_msg.station = "utah-42"; reading = 76543; scale = -2 })
           in
           send_to "vax-receiver";
           send_to "sun-receiver"));

  Cluster.settle ~dt:20_000_000 cluster;
  Queue.iter print_endline readings;
  let m = Cluster.metrics cluster in
  Printf.printf "\nconversions by the sensor: image=%d packed=%d — no needless work\n"
    (Ntcs_obs.Registry.get m "conv.image_msgs.sensor")
    (Ntcs_obs.Registry.get m "conv.packed_msgs.sensor")
